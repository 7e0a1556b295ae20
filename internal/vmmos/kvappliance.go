package vmmos

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// KVAppliance is the same minimal extension as mkos.KVServer — a tiny
// key-value cache — built the way a VMM forces you to build it: as a guest
// domain. To serve one request it must bring up a domain with validated
// page tables, register kernel hooks, bind an event channel per client, and
// move request/response payloads through granted pages. None of that is the
// service's logic; all of it is the interface (§2.2: "the VMM's interfaces
// significantly increase the complexity of software design"). Experiment
// E10 counts the difference.
type KVAppliance struct {
	H   *vmm.Hypervisor
	GK  *GuestKernel
	Dom *vmm.Domain

	data map[string][]byte
}

// kvConn is the per-client channel + shared-page state.
type kvConn struct {
	client    vmm.DomID
	appPort   vmm.Port
	frontPort vmm.Port
	req       *kvReq
}

type kvReq struct {
	op    uint32 // reuse the mkos label values for symmetry
	ref   vmm.GrantRef
	frame hw.FrameID
	n     int
	done  bool
	found bool
	respN int
}

// NewKVAppliance boots the extension as a domain.
func NewKVAppliance(h *vmm.Hypervisor, dom *vmm.Domain) *KVAppliance {
	return &KVAppliance{
		H:    h,
		GK:   NewGuestKernel(h, dom), // kernel hooks: syscall/event/virq
		Dom:  dom,
		data: make(map[string][]byte),
	}
}

// Comp returns the interned trace attribution handle.
func (a *KVAppliance) Comp() trace.Comp { return a.Dom.Comp() }

// Connect attaches a client guest: event channel + a dedicated request page
// the client grants per call.
func (a *KVAppliance) Connect(gk *GuestKernel) (*KVClient, error) {
	appPort, frontPort, err := a.H.BindChannel(a.Dom.ID, gk.Dom.ID)
	if err != nil {
		return nil, err
	}
	buf, err := a.H.M.Mem.Alloc(gk.Comp())
	if err != nil {
		return nil, err
	}
	c := &KVClient{gk: gk, app: a, localPort: frontPort, buf: buf}
	conn := &kvConn{client: gk.Dom.ID, appPort: appPort, frontPort: frontPort}
	c.conn = conn
	a.GK.ExtraEvent[appPort] = func() { a.serve(conn) }
	gk.ExtraEvent[frontPort] = func() { gk.H.M.CPU.Work(gk.Comp(), 100) }
	return c, nil
}

// serve handles one client kick: map the granted request page, run the
// lookup, write the response back through the same page, unmap, notify.
func (a *KVAppliance) serve(conn *kvConn) {
	comp := a.Comp()
	h := a.H
	r := conn.req
	if r == nil {
		return
	}
	conn.req = nil
	h.M.CPU.Work(comp, 200) // hash, lookup — identical service logic cost
	const window = hw.VPN(0xF000)
	if err := h.GrantMap(a.Dom.ID, conn.client, r.ref, window); err != nil {
		r.done = true
		h.NotifyChannel(a.Dom.ID, conn.appPort)
		return
	}
	e, _ := a.Dom.PT.Lookup(window)
	key, value := splitKVPage(h.M.Mem.View(e.Frame, r.n))
	switch r.op {
	case 0x200: // get
		if v, ok := a.data[key]; ok {
			r.found = true
			r.respN = h.M.Mem.Write(e.Frame, 0, v)
			h.M.CPU.Work(comp, h.M.CPU.CopyCost(uint64(r.respN)))
		}
	case 0x201: // put
		a.data[key] = append([]byte(nil), value...)
		h.M.CPU.Work(comp, h.M.CPU.CopyCost(uint64(len(value))))
		r.found = true
	case 0x202: // delete
		delete(a.data, key)
		r.found = true
	}
	h.GrantUnmap(a.Dom.ID, conn.client, r.ref, window)
	r.done = true
	h.NotifyChannel(a.Dom.ID, conn.appPort)
}

func splitKVPage(data []byte) (string, []byte) {
	for i, b := range data {
		if b == 0 {
			return string(data[:i]), data[i+1:]
		}
	}
	return string(data), nil
}

// KVClient is a guest's stub for the appliance.
type KVClient struct {
	gk        *GuestKernel
	app       *KVAppliance
	conn      *kvConn
	localPort vmm.Port
	buf       hw.FrameID
}

// call moves one request through the grant + event-channel machinery.
func (c *KVClient) call(op uint32, key string, value []byte) (*kvReq, error) {
	h := c.gk.H
	if !h.Alive(c.app.Dom.ID) {
		return nil, ErrBackendDead
	}
	n := h.M.Mem.Write(c.buf, 0, append(append([]byte(key), 0), value...))
	ref, err := h.GrantAccess(c.gk.Dom.ID, c.buf, c.app.Dom.ID, false)
	if err != nil {
		return nil, err
	}
	req := &kvReq{op: op, ref: ref, frame: c.buf, n: n}
	c.conn.req = req
	if err := h.NotifyChannel(c.gk.Dom.ID, c.conn.frontPort); err != nil {
		return nil, err
	}
	for i := 0; i < 16 && !req.done; i++ {
		if h.PumpIO(8) == 0 {
			break
		}
	}
	if !req.done {
		return nil, ErrIOTimeout
	}
	h.GrantEnd(c.gk.Dom.ID, ref)
	return req, nil
}

// Get fetches a key.
func (c *KVClient) Get(key string) ([]byte, bool, error) {
	req, err := c.call(0x200, key, nil)
	if err != nil {
		return nil, false, err
	}
	if !req.found {
		return nil, false, nil
	}
	out := make([]byte, req.respN)
	c.gk.H.M.Mem.Read(c.buf, 0, out)
	return out, true, nil
}

// Put stores a key.
func (c *KVClient) Put(key string, value []byte) error {
	_, err := c.call(0x201, key, value)
	return err
}

// Delete removes a key.
func (c *KVClient) Delete(key string) error {
	_, err := c.call(0x202, key, nil)
	return err
}
