// Package vmmos provides the operating-system personalities that run on
// the vmm hypervisor: a paravirtualised guest kernel (XenoLinux-like),
// the Dom0 driver domain with netback and blkback backends, the matching
// netfront and blkfront frontends, a Parallax-like storage appliance
// domain that serves virtual disks to other guests through the same
// blkfront, and the KV appliance (E10's minimal extension).
//
// The guest kernel is the vmm port of package guestos's guest OS: it
// embeds the OS and keeps only the transport, a trapped system call whose
// first word names the calling process, and the frontends that deliver
// received packets to the OS and serve its network and block devices.
//
// Together with package vmm this is "system B" of the paper's comparison —
// the structural twin of package mkos on the microkernel side. The I/O
// paths are modelled on Xen 2.x as measured by Cherkasova & Gardner:
// network receive moves pages from the driver domain to the guest by page
// flipping (one flip per packet, whatever the packet size), with a
// grant-copy mode available as the ablation E9 studies. Package core boots
// this stack as XenStack next to mkos's MKStack on identical hw machines.
//
// On a multiprocessor, the toolstack places a guest's vCPUs on a set of
// physical CPUs (vmm.PlaceVCPUs, given an hw.CPUSet); the driver domain
// stays on the boot CPU, so backend→frontend event deliveries pay kick
// IPIs and the guest's shadow invalidations shoot down its pCPUs — the
// costs experiment E12 sweeps against core count.
package vmmos
