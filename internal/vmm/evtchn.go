package vmm

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// Port is a domain-local event-channel port number.
type Port int

// endpoint is one side of a channel.
type endpoint struct {
	dom  DomID
	port Port
}

// channel is an interdomain event channel: the paper's primitive 3
// ("asynchronous communication channels across domains"). Signalling a
// channel delivers an upcall to the remote side — which requires a world
// switch when the remote is not the current domain. This is precisely the
// "simple asynchronous unidirectional event mechanism" the original paper
// described and the rebuttal identifies as asynchronous IPC.
type channel struct {
	a, b endpoint
}

// chanPortStride separates the port numbers of successive occupants of
// one channel slot. Slot indexes stay far below it in any realistic run.
// A port names its slot and generation: the two ends of the channel in
// slot s, generation g, use ports g*chanPortStride + 2*s + 1 and + 2.
const chanPortStride = 1 << 20

// BindChannel creates a channel between two domains and returns the local
// port each side uses. Both domains must be alive. Channel slots freed by
// DestroyDomain are reused so domain churn does not grow the port table;
// each reuse shifts the slot's port numbers by a generation stride, so a
// surviving peer still holding a dead channel's port gets an error rather
// than silently signalling the slot's next occupant.
func (h *Hypervisor) BindChannel(x, y DomID) (Port, Port, error) {
	dx, err := h.lookup(x)
	if err != nil {
		return 0, 0, err
	}
	if _, err := h.lookup(y); err != nil {
		return 0, 0, err
	}
	// A bind is a hypercall from the allocating side.
	h.hypercallEntry(dx)
	slot := len(h.ports)
	if n := len(h.freeChans); n > 0 {
		slot = h.freeChans[n-1]
		h.freeChans = h.freeChans[:n-1]
	} else {
		h.ports = append(h.ports, nil)
		h.chanGen = append(h.chanGen, 0)
	}
	base := h.chanGen[slot] * chanPortStride
	px := Port(base + slot*2 + 1)
	py := Port(base + slot*2 + 2)
	h.ports[slot] = &channel{a: endpoint{x, px}, b: endpoint{y, py}}
	h.hypercallExit()
	return px, py, nil
}

// remoteEnd locates the other endpoint of the channel bound to (dom, port).
// The port names its channel's slot, and the endpoint stored there must
// match it exactly, which rejects any other generation and the other end.
func (h *Hypervisor) remoteEnd(dom DomID, port Port) (endpoint, bool) {
	if slot := int(port%chanPortStride-1) / 2; port > 0 && slot < len(h.ports) && h.ports[slot] != nil {
		ch := h.ports[slot]
		switch (endpoint{dom, port}) {
		case ch.a:
			return ch.b, true
		case ch.b:
			return ch.a, true
		}
	}
	return endpoint{}, false
}

// NotifyChannel signals the channel bound to (from, port). The sending side
// pays the hypercall; delivery to the remote costs an upcall and, if the
// remote is not current, a world switch — the cycle structure behind the
// paper's observation that Xen's event mechanism is IPC by another name.
func (h *Hypervisor) NotifyChannel(from DomID, port Port) error {
	d, err := h.lookup(from)
	if err != nil {
		return err
	}
	remote, ok := h.remoteEnd(from, port)
	if !ok {
		return ErrBadPort
	}
	rd := h.dom(remote.dom)
	if rd == nil {
		return ErrDomainDead
	}

	h.hypercallEntry(d)
	h.M.CPU.Charge(h.comp, trace.KEvtchnSend, 80)
	h.hypercallExit()

	h.deliverEvent(rd, remote.port)
	return nil
}

// deliverEvent runs the remote domain's upcall for port, switching worlds
// if needed and switching back afterwards (the sender continues). A domain
// whose vCPUs are placed on other pCPUs is first kicked with an IPI — the
// cross-CPU event-delivery surcharge E12 measures.
func (h *Hypervisor) deliverEvent(rd *Domain, port Port) {
	h.kickDomain(rd)
	prev := h.current
	h.switchTo(rd)
	h.M.CPU.Charge(h.comp, trace.KVirtIRQ, h.M.Arch.Costs.IRQDispatch/2)
	if rd.Hooks.OnEvent != nil {
		rd.Hooks.OnEvent(port)
	}
	if prev != nil && prev != rd && !prev.Dead {
		h.switchTo(prev)
	}
}

// SendVIRQ injects a virtual interrupt (timer, debug, …) into a domain:
// paper primitive 8.
func (h *Hypervisor) SendVIRQ(dom DomID, virq int) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.kickDomain(d)
	prev := h.current
	h.switchTo(d)
	h.M.CPU.Charge(h.comp, trace.KVirtIRQ, h.M.Arch.Costs.IRQDispatch/2)
	if d.Hooks.OnVIRQ != nil {
		d.Hooks.OnVIRQ(virq)
	}
	if prev != nil && prev != d && !prev.Dead {
		h.switchTo(prev)
	}
	return nil
}

// RouteIRQ gives a domain (in practice Dom0) ownership of a physical
// interrupt line: paper primitive 9 ("hardware interrupt notification via
// virtualised interrupt controller"). The monitor fields the interrupt and
// injects it into the owner.
func (h *Hypervisor) RouteIRQ(line hw.IRQLine, dom DomID) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	if !d.Privileged {
		return ErrNotPrivileged
	}
	h.M.IRQ.SetHandler(line, func(l hw.IRQLine) {
		owner := h.dom(dom)
		if owner == nil {
			return // driver domain died; interrupt dropped, monitor fine
		}
		h.M.CPU.Charge(h.comp, trace.KHardIRQInject, h.M.Arch.Costs.IRQDispatch)
		prev := h.current
		h.switchTo(owner)
		if owner.Hooks.OnVIRQ != nil {
			owner.Hooks.OnVIRQ(int(l))
		}
		if prev != nil && prev != owner && !prev.Dead {
			h.switchTo(prev)
		}
	})
	h.M.CPU.Work(h.comp, 100)
	return nil
}
