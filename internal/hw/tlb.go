package hw

// tlbKey tags an entry with the address space that installed it. On
// architectures without ASIDs every entry carries tag 0 and a space switch
// must flush.
type tlbKey struct {
	asid uint16
	vpn  VPN
}

// TLB is a deterministic FIFO-replacement translation cache. Real TLBs are
// set-associative with pseudo-random replacement; FIFO preserves the only
// property the experiments need — bounded capacity with misses charged per
// refill — while keeping runs reproducible.
type TLB struct {
	capacity int
	tagged   bool
	entries  map[tlbKey]PTE
	fifo     []tlbKey
}

// NewTLB returns a TLB of the given capacity. tagged selects ASID tagging.
// The entry map is not sized to the capacity: it grows with the
// translations actually inserted, which for a short-lived machine is far
// fewer, and flushes keep what it has grown to.
func NewTLB(capacity int, tagged bool) *TLB {
	t := &TLB{entries: make(map[tlbKey]PTE)}
	t.retarget(capacity, tagged)
	return t
}

// retarget gives an empty TLB the capacity and tagging NewTLB would, and
// keeps its entry map and FIFO buffers: the pool's re-target of a
// recycled machine's CPUs.
func (t *TLB) retarget(capacity int, tagged bool) {
	if capacity <= 0 {
		panic("hw: TLB capacity must be positive")
	}
	t.capacity, t.tagged = capacity, tagged
}

// Capacity returns the entry capacity.
func (t *TLB) Capacity() int { return t.capacity }

func (t *TLB) key(asid uint16, vpn VPN) tlbKey {
	if !t.tagged {
		asid = 0
	}
	return tlbKey{asid, vpn}
}

// Lookup probes the TLB; the bool reports a hit.
func (t *TLB) Lookup(asid uint16, vpn VPN) (PTE, bool) {
	e, ok := t.entries[t.key(asid, vpn)]
	return e, ok
}

// Insert installs a translation, evicting the oldest entry when full.
func (t *TLB) Insert(asid uint16, vpn VPN, e PTE) {
	k := t.key(asid, vpn)
	if _, exists := t.entries[k]; !exists {
		for len(t.entries) >= t.capacity {
			victim := t.fifo[0]
			t.fifo = t.fifo[1:]
			// The victim may already have been removed by a flush;
			// deleting again is harmless.
			delete(t.entries, victim)
		}
		t.fifo = append(t.fifo, k)
	}
	t.entries[k] = e
}

// FlushAll empties the TLB (untagged space switch, or global shootdown).
// The map's buckets are kept: untagged architectures flush on every address
// space switch, and reallocating here dominated whole-engine profiles.
func (t *TLB) FlushAll() {
	clear(t.entries)
	t.fifo = t.fifo[:0]
}

// FlushASID removes all entries for one address space. On an untagged TLB
// this degrades to FlushAll, exactly as on real hardware.
func (t *TLB) FlushASID(asid uint16) {
	if !t.tagged {
		t.FlushAll()
		return
	}
	kept := t.fifo[:0]
	for _, k := range t.fifo {
		if k.asid == asid {
			delete(t.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	t.fifo = kept
}

// FlushEntry removes one translation if present.
func (t *TLB) FlushEntry(asid uint16, vpn VPN) {
	delete(t.entries, t.key(asid, vpn))
}

// Len returns the number of live entries.
func (t *TLB) Len() int { return len(t.entries) }
