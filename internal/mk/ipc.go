package mk

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// Msg is an IPC message. A message no larger than the architecture's
// register file travels as a "short IPC" without touching memory; Data adds
// a string (copy) transfer; Map adds flexpage delegation. The three
// transfer classes are the paper's three orthogonal purposes of IPC fused
// into one primitive.
type Msg struct {
	Label uint32   // protocol selector, by convention
	Words []uint64 // untyped register words
	Data  []byte   // string item (copied into the receiver)
	Map   []MapItem
}

// MapItem delegates pages from the sender's space into the receiver's:
// resource delegation requiring mutual agreement (the sender constructs the
// item; the receiver accepts it by performing the receive).
type MapItem struct {
	SrcVPN hw.VPN // first page in the sender's space
	DstVPN hw.VPN // first page in the receiver's space
	Count  int
	Perms  hw.Perm
	Grant  bool // grant removes the sender's own mapping (ownership moves)
}

// msgRegs is one set of message registers: kernel-owned buffers a message
// is copied into on delivery, as L4 copies into the receiver's UTCB, so
// sender and receiver never alias and a warm transfer allocates nothing.
type msgRegs struct {
	words []uint64
	data  []byte
	items []MapItem
}

// load copies m into the registers and returns a view of the copy. The
// view's slices are capped at their length, so a receiver that appends to
// them reallocates instead of writing into register capacity.
func (r *msgRegs) load(m Msg) Msg {
	out := Msg{Label: m.Label}
	if n := len(m.Words); n > 0 {
		r.words = append(r.words[:0], m.Words...)
		out.Words = r.words[:n:n]
	}
	if n := len(m.Data); n > 0 {
		r.data = append(r.data[:0], m.Data...)
		out.Data = r.data[:n:n]
	}
	if n := len(m.Map); n > 0 {
		r.items = append(r.items[:0], m.Map...)
		out.Map = r.items[:n:n]
	}
	return out
}

// deliver runs handler h on msg one call level deeper. msg is copied into
// the request registers of the current level, so the handler's view is
// valid until it returns. Deliveries at one level never overlap, because a
// handler delivered at level L runs at depth L+1. The levels grow on first
// use: interrupt, page-fault and exception deliveries have no depth check.
func (k *Kernel) deliver(h Handler, from ThreadID, msg Msg) (Msg, error) {
	for len(k.requests) <= k.callDepth {
		k.requests = append(k.requests, msgRegs{})
	}
	req := k.requests[k.callDepth].load(msg)
	k.callDepth++
	reply, err := h(k, from, req)
	k.callDepth--
	return reply, err
}

// maxStringTransfer bounds one string item, mirroring L4's transfer limits.
const maxStringTransfer = 1 << 20

// ipcTransferCost charges the kernel for moving the message body and
// returns an error for oversized messages.
func (k *Kernel) ipcTransferCost(msg Msg) error {
	arch := k.M.Arch
	words := len(msg.Words)
	if words <= arch.RegisterIPCWords {
		// Short IPC: words ride in registers, no memory traffic.
		k.M.CPU.Work(k.comp, 20)
	} else {
		extra := uint64(words-arch.RegisterIPCWords) * uint64(arch.WordBytes())
		k.M.CPU.Work(k.comp, k.M.CPU.CopyCost(extra))
	}
	if len(msg.Data) > 0 {
		if len(msg.Data) > maxStringTransfer {
			return ErrMsgTooLarge
		}
		k.M.CPU.Charge(k.comp, trace.KIPCStringTransfer, k.M.CPU.CopyCost(uint64(len(msg.Data))))
	}
	return nil
}

// applyMapItems installs the message's map items from src into dst,
// validating that the sender actually holds the pages with sufficient
// rights. Delegated rights can only be narrowed, never amplified.
func (k *Kernel) applyMapItems(src, dst *Space, items []MapItem) error {
	for _, it := range items {
		if it.Count <= 0 {
			return fmt.Errorf("%w: non-positive count", ErrBadMapping)
		}
		for i := 0; i < it.Count; i++ {
			e, ok := src.PT.Lookup(it.SrcVPN + hw.VPN(i))
			if !ok {
				return ErrBadMapping
			}
			if !e.Perms.Allows(it.Perms) {
				return ErrPermDenied
			}
			dst.PT.Map(it.DstVPN+hw.VPN(i), hw.PTE{Frame: e.Frame, Perms: it.Perms, User: true})
			k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
			srcNode := mapNode{space: src.ID, vpn: it.SrcVPN + hw.VPN(i)}
			dstNode := mapNode{space: dst.ID, vpn: it.DstVPN + hw.VPN(i)}
			if it.Grant {
				src.PT.Unmap(it.SrcVPN + hw.VPN(i))
				k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
				k.M.CPU.FlushTLBEntry(k.comp, uint16(src.ID), it.SrcVPN+hw.VPN(i))
				// Frame accounting follows the grant, and the sender's
				// node leaves the derivation tree: a gift carries no
				// revocation authority.
				k.M.Mem.Transfer(e.Frame, dst.comp)
				k.mapdb.drop(srcNode)
			} else {
				// A map is a loan: record the derivation so the sender
				// (or its ancestors) can revoke recursively.
				k.mapdb.record(srcNode, dstNode)
			}
		}
		k.M.CPU.Charge(k.comp, trace.KIPCMapTransfer, 0)
	}
	return nil
}

// ipcPreamble charges kernel entry and validates the transfer: the sender
// may reach the partner, the partner lives and has a handler to deliver
// to, and the call chain is below its depth limit. It returns the sender
// and the destination thread; a refusal returns to the sender before
// anything transfers.
func (k *Kernel) ipcPreamble(from, to ThreadID) (*Thread, *Thread, error) {
	src := k.Thread(from)
	dst := k.Thread(to)
	if src == nil || dst == nil {
		return nil, nil, ErrNoSuchThread
	}
	// Kernel entry from the sender's context.
	k.M.CPU.Trap(k.comp, k.M.Arch.HasFastSyscall)
	k.M.CPU.Work(k.comp, k.M.Arch.Costs.PrivCheck) // validate partner ID / rights
	if !k.ipcAllowed(from, to) {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return nil, nil, ErrIPCDenied
	}
	if dst.Dead || dst.Space.Dead {
		// The kernel stays correct; the failure is confined to the
		// caller, which receives an error exactly as the paper's §3.1
		// describes for a failed user-level server.
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return nil, nil, ErrDeadPartner
	}
	if dst.Handler == nil {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return nil, nil, ErrNotResponding
	}
	if k.callDepth >= maxCallDepth {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return nil, nil, ErrCallDepth
	}
	return src, dst, nil
}

// Call performs a synchronous call IPC: transfer to the server, run it,
// transfer the reply back. Cycle charges: kernel entry/exit, message
// transfer, two address-space switches, and whatever the handler itself
// charges. This is the microkernel's only extensibility primitive.
//
// The handler reads the message from the request registers of its call
// level, valid until it returns. The reply is copied into the calling
// thread's reply registers and is valid until that thread's next IPC.
func (k *Kernel) Call(from, to ThreadID, msg Msg) (Msg, error) {
	src, dst, err := k.ipcPreamble(from, to)
	if err != nil {
		return Msg{}, err
	}
	if err := k.ipcTransferCost(msg); err != nil {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return Msg{}, err
	}
	if len(msg.Map) > 0 {
		if err := k.applyMapItems(src.Space, dst.Space, msg.Map); err != nil {
			k.M.CPU.ReturnTo(k.comp, hw.Ring3)
			return Msg{}, err
		}
	}

	// Control transfer: switch to the server's space and drop to user. A
	// partner homed on another CPU first needs that CPU kicked awake — the
	// cross-CPU IPC surcharge the SMP experiment (E12) measures; same-CPU
	// rendezvous (and every uniprocessor call) pays nothing here.
	if src.Affinity != dst.Affinity {
		k.M.SendIPI(src.Affinity, dst.Affinity)
	}
	k.M.CPU.SwitchSpace(k.comp, &dst.Space.PT)
	k.M.CPU.Charge(k.comp, trace.KIPCCall, k.M.Arch.Costs.CtxSave)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)

	reply, herr := k.deliver(dst.Handler, from, msg)

	// Reply path: kernel entry from the server, transfer, switch back —
	// and the return kick when the caller waits on another CPU.
	if src.Affinity != dst.Affinity {
		k.M.SendIPI(dst.Affinity, src.Affinity)
	}
	k.M.CPU.Trap(k.comp, k.M.Arch.HasFastSyscall)
	if herr == nil {
		if terr := k.ipcTransferCost(reply); terr != nil {
			herr = terr
		} else if len(reply.Map) > 0 {
			if merr := k.applyMapItems(dst.Space, src.Space, reply.Map); merr != nil {
				herr = merr
			}
		}
	}
	k.M.CPU.SwitchSpace(k.comp, &src.Space.PT)
	k.M.CPU.Work(k.comp, k.M.Arch.Costs.CtxSave)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)

	if herr != nil {
		return Msg{}, herr
	}
	return src.replies.load(reply), nil
}

// Send performs a one-way send: the message is delivered to the
// destination's handler through the request registers, as by Call, and the
// handler's reply is discarded, so the sender does not wait for one. A
// destination without a handler is refused with ErrNotResponding, and any
// destination at the call-depth limit with ErrCallDepth, before anything
// transfers, as Call refuses them.
func (k *Kernel) Send(from, to ThreadID, msg Msg) error {
	src, dst, err := k.ipcPreamble(from, to)
	if err != nil {
		return err
	}
	if err := k.ipcTransferCost(msg); err != nil {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return err
	}
	if len(msg.Map) > 0 {
		if err := k.applyMapItems(src.Space, dst.Space, msg.Map); err != nil {
			k.M.CPU.ReturnTo(k.comp, hw.Ring3)
			return err
		}
	}
	if src.Affinity != dst.Affinity {
		k.M.SendIPI(src.Affinity, dst.Affinity)
	}
	k.M.CPU.Charge(k.comp, trace.KIPCSend, 10)
	k.M.CPU.SwitchSpace(k.comp, &dst.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)
	// One-way: handler errors do not propagate to the sender.
	_, _ = k.deliver(dst.Handler, from, msg)
	k.M.CPU.Trap(k.comp, k.M.Arch.HasFastSyscall)
	k.M.CPU.SwitchSpace(k.comp, &src.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)
	return nil
}
