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
