package cluster

import "testing"

// BenchmarkChurnEvent is one churn event on the fleet workload's shape,
// 16 hosts of 192 frames: an arrival's placement, or a departure and the
// rebalance pass after it. The cluster reboots every 1024 events, so ops
// measure a fleet in steady churn, not one whose placement log grows
// without bound; each op carries 1/1024 of a reboot.
func BenchmarkChurnEvent(b *testing.B) {
	const epoch = 1024
	var (
		c  *Cluster
		ch *churn
	)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i%epoch == 0 {
			if c != nil {
				c.Close()
			}
			var err error
			seed := uint64(i / epoch)
			if c, err = New(Config{Hosts: 16, HostFrames: 192, Policy: Policies[seed%2]}, nil); err != nil {
				b.Fatal(err)
			}
			ch = c.newChurn(seed)
		}
		if err := ch.event(i % epoch); err != nil {
			b.Fatal(err)
		}
		i++
	}
	c.Close()
}
