package core

import "testing"

// TestRxGrantTableStaysBounded: netback grants every received packet's page
// to the guest, which flips it away or copies it and has the grant revoked.
// Those grants free their slots, so 10,000 packets through one Xen stack
// leave the driver domain's grant table at a few entries in either mode,
// not one per packet. The hypervisor's audit, which checks the grant free
// list, holds after every burst.
func TestRxGrantTableStaysBounded(t *testing.T) {
	const packets, burst, maxSlots = 10000, 4, 8
	for _, copyMode := range []bool{false, true} {
		s, err := NewXenStack(Config{CopyMode: copyMode})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < packets; i += burst {
			s.InjectPackets(burst, 1500, 0)
			if n := s.DrainRx(0); n != burst {
				t.Fatalf("copy mode %v, packet %d: drained %d of %d", copyMode, i, n, burst)
			}
			if err := s.H.Audit(); err != nil {
				t.Fatalf("copy mode %v, packet %d: %v", copyMode, i, err)
			}
		}
		if n := s.DD.GK.Dom.GrantSlots(); n > maxSlots {
			t.Errorf("copy mode %v: %d packets left %d grant slots in the driver domain, want at most %d", copyMode, packets, n, maxSlots)
		}
		s.Close()
	}
}

// TestGuestGrantTableStaysBounded: each frontend grants its buffer page
// afresh for every request (blkfront for a block read or write, netfront
// for a transmit) and ends the grant once the request has completed. Those
// grants free their slots, so thousands of requests leave every domain's
// grant table at a slot or two, not one per request. The guest's requests
// reach Parallax, which writes through to Dom0's blkback with a frontend
// of its own, so the appliance's table is checked too. The hypervisor's
// audit, which checks the grant free list, holds after every phase.
func TestGuestGrantTableStaysBounded(t *testing.T) {
	const writes, reads, sends, maxSlots = 1000, 1000, 500, 2
	for _, consolidated := range []bool{false, true} {
		s, err := NewXenStack(Config{Consolidated: consolidated})
		if err != nil {
			t.Fatal(err)
		}
		audit := func(phase string) {
			t.Helper()
			if err := s.H.Audit(); err != nil {
				t.Fatalf("consolidated %v, after %s: %v", consolidated, phase, err)
			}
		}
		data := []byte("grant me once")
		for i := 0; i < writes; i++ {
			if err := s.StorageWrite(0, uint64(i%storeBlocks), data); err != nil {
				t.Fatalf("consolidated %v, write %d: %v", consolidated, i, err)
			}
		}
		audit("writes")
		for i := 0; i < reads; i++ {
			if _, err := s.StorageRead(0, uint64(i%storeBlocks)); err != nil {
				t.Fatalf("consolidated %v, read %d: %v", consolidated, i, err)
			}
		}
		audit("reads")
		if err := s.SendPackets(sends, 1500, 0); err != nil {
			t.Fatalf("consolidated %v: %v", consolidated, err)
		}
		audit("sends")
		for _, d := range s.H.Domains() {
			if n := d.GrantSlots(); n > maxSlots {
				t.Errorf("consolidated %v: %d writes, %d reads and %d sends left %d grant slots in %s, want at most %d",
					consolidated, writes, reads, sends, n, d.Name, maxSlots)
			}
		}
		s.Close()
	}
}
