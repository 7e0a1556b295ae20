// Package workload generates the deterministic operation streams the
// experiments replay against both systems: packet arrival rates,
// system-call mixes, block-I/O patterns and a composite web-serving
// request stream. Identical seeds yield identical streams, so the two
// platforms always see exactly the same input.
package workload

import "vmmk/internal/simrand"

// SyscallMix is a weighted system-call workload.
type SyscallMix struct {
	GetPID int // weight of null syscalls
	Write  int // weight of console writes
	Yield  int // weight of yields
}

// DefaultMix is a getpid-heavy mix approximating a syscall microbenchmark.
var DefaultMix = SyscallMix{GetPID: 8, Write: 1, Yield: 1}

// Op is one operation in a generated sequence.
type Op struct {
	Kind OpKind
	Arg  uint64
}

// OpKind enumerates workload operations.
type OpKind uint8

// Operation kinds.
const (
	OpGetPID OpKind = iota
	OpWrite
	OpYield
	OpNetSend
	OpNetRecv
	OpBlockRead
	OpBlockWrite
)

// String names the workload operation.
func (k OpKind) String() string {
	switch k {
	case OpGetPID:
		return "getpid"
	case OpWrite:
		return "write"
	case OpYield:
		return "yield"
	case OpNetSend:
		return "netsend"
	case OpNetRecv:
		return "netrecv"
	case OpBlockRead:
		return "blockread"
	case OpBlockWrite:
		return "blockwrite"
	}
	return "invalid"
}

// Sequence generates n ops drawn from the mix with the given seed.
func (m SyscallMix) Sequence(n int, seed uint64) []Op {
	total := m.GetPID + m.Write + m.Yield
	if total <= 0 {
		return nil
	}
	r := simrand.New(seed)
	out := make([]Op, n)
	for i := range out {
		v := r.Intn(total)
		switch {
		case v < m.GetPID:
			out[i] = Op{Kind: OpGetPID}
		case v < m.GetPID+m.Write:
			out[i] = Op{Kind: OpWrite, Arg: uint64('a' + r.Intn(26))}
		default:
			out[i] = Op{Kind: OpYield}
		}
	}
	return out
}

// BlockPattern is a block-I/O workload: n operations over a working set of
// wsBlocks, with the given write fraction.
type BlockPattern struct {
	N         int
	WSBlocks  uint64
	WriteFrac float64
	Seed      uint64
}

// Ops materialises the pattern.
func (bp BlockPattern) Ops() []Op {
	r := simrand.New(bp.Seed)
	out := make([]Op, bp.N)
	for i := range out {
		block := r.Uint64n(maxU64(bp.WSBlocks, 1))
		if r.Bool(bp.WriteFrac) {
			out[i] = Op{Kind: OpBlockWrite, Arg: block}
		} else {
			out[i] = Op{Kind: OpBlockRead, Arg: block}
		}
	}
	return out
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// WebRequest is one request of the composite web-serving workload motivated
// by the paper's I/O arguments: receive a request packet, consult storage,
// send a response packet.
type WebRequest struct {
	ReqSize  int
	RespSize int
	Block    uint64
}

// WebStream generates n web requests over a file working set.
type WebStream struct {
	N        int
	WSBlocks uint64
	Seed     uint64
}

// Requests materialises the stream. Request sizes model small HTTP GETs;
// response sizes are bimodal (small dynamic pages and larger static ones).
func (ws WebStream) Requests() []WebRequest {
	r := simrand.New(ws.Seed)
	out := make([]WebRequest, ws.N)
	for i := range out {
		resp := 512
		if r.Bool(0.3) {
			resp = 4096
		}
		out[i] = WebRequest{
			ReqSize:  128 + r.Intn(256),
			RespSize: resp,
			Block:    r.Uint64n(maxU64(ws.WSBlocks, 1)),
		}
	}
	return out
}

// RateSchedule converts a packets-per-second rate into an inter-arrival gap
// in cycles, given the simulation's nominal clock frequency. The absolute
// frequency is a modelling constant (2 GHz); experiments report shapes, not
// wall-clock throughput.
func RateSchedule(pktPerSec int) uint64 {
	const hz = 2_000_000_000
	if pktPerSec <= 0 {
		return hz
	}
	return hz / uint64(pktPerSec)
}
