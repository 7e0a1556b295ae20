package workload

import (
	"testing"
	"testing/quick"
)

func TestSyscallMixDeterministic(t *testing.T) {
	a := DefaultMix.Sequence(100, 42)
	b := DefaultMix.Sequence(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different sequence")
		}
	}
	c := DefaultMix.Sequence(100, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical sequence")
	}
}

func TestSyscallMixWeights(t *testing.T) {
	seq := (SyscallMix{GetPID: 1, Write: 0, Yield: 0}).Sequence(50, 1)
	for _, op := range seq {
		if op.Kind != OpGetPID {
			t.Fatal("pure-getpid mix emitted something else")
		}
	}
	if (SyscallMix{}).Sequence(10, 1) != nil {
		t.Fatal("zero-weight mix should be empty")
	}
}

func TestBlockPatternBounds(t *testing.T) {
	ops := (BlockPattern{N: 200, WSBlocks: 16, WriteFrac: 0.5, Seed: 7}).Ops()
	writes := 0
	for _, op := range ops {
		if op.Arg >= 16 {
			t.Fatalf("block %d outside working set", op.Arg)
		}
		if op.Kind == OpBlockWrite {
			writes++
		} else if op.Kind != OpBlockRead {
			t.Fatalf("unexpected op %v", op.Kind)
		}
	}
	if writes == 0 || writes == 200 {
		t.Fatalf("write fraction degenerate: %d/200", writes)
	}
}

func TestWebStream(t *testing.T) {
	reqs := (WebStream{N: 100, WSBlocks: 32, Seed: 9}).Requests()
	if len(reqs) != 100 {
		t.Fatal("wrong count")
	}
	big := 0
	for _, r := range reqs {
		if r.ReqSize < 128 || r.ReqSize >= 384 {
			t.Fatalf("req size %d out of range", r.ReqSize)
		}
		if r.RespSize == 4096 {
			big++
		} else if r.RespSize != 512 {
			t.Fatalf("resp size %d unexpected", r.RespSize)
		}
		if r.Block >= 32 {
			t.Fatal("block outside working set")
		}
	}
	if big == 0 || big == 100 {
		t.Fatalf("bimodal response degenerate: %d/100 big", big)
	}
}

func TestRateSchedule(t *testing.T) {
	if RateSchedule(1000) != 2_000_000 {
		t.Fatalf("1k pkt/s gap = %d", RateSchedule(1000))
	}
	if RateSchedule(0) != 2_000_000_000 {
		t.Fatal("zero rate should clamp to 1 pkt/s")
	}
	if RateSchedule(100_000) >= RateSchedule(1000) {
		t.Fatal("higher rate must give smaller gap")
	}
}

func TestQuickBlockPatternInBounds(t *testing.T) {
	f := func(seed uint64, ws uint8) bool {
		w := uint64(ws%32) + 1
		for _, op := range (BlockPattern{N: 50, WSBlocks: w, WriteFrac: 0.3, Seed: seed}).Ops() {
			if op.Arg >= w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpGetPID; k <= OpBlockWrite; k++ {
		if k.String() == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
