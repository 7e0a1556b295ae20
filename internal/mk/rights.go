package mk

import "errors"

// IPC rights: a minimal capability-flavoured control over who may IPC whom.
// L4's lineage went from clans & chiefs (V2) to redirectors (X.2) to full
// capability spaces (seL4); the experiments need only the enforcement
// point, which is the same in all three: the kernel checks the sender's
// authority on every IPC before any transfer happens. The default is
// allow-all (classic L4); once a thread is restricted, only whitelisted
// partners are reachable.

// ErrIPCDenied is returned when an IPC is blocked by rights.
var ErrIPCDenied = errors.New("mk: IPC denied by rights restriction")

// whitelist returns sender's whitelist, putting sender under the
// whitelist regime if it was not yet. The table of whitelists
// (Kernel.rights) is made on the kernel's first restriction.
func (k *Kernel) whitelist(sender ThreadID) map[ThreadID]bool {
	wl := k.rights[sender]
	if wl == nil {
		if k.rights == nil {
			k.rights = make(map[ThreadID]map[ThreadID]bool)
		}
		wl = make(map[ThreadID]bool)
		k.rights[sender] = wl
	}
	return wl
}

// RestrictIPC puts sender under a whitelist regime (initially empty: it can
// reach nobody until AllowIPC is called).
func (k *Kernel) RestrictIPC(sender ThreadID) error {
	if k.Thread(sender) == nil {
		return ErrNoSuchThread
	}
	k.whitelist(sender)
	k.M.CPU.Work(k.comp, 100)
	return nil
}

// AllowIPC whitelists receiver for a restricted sender (and restricts the
// sender if it was not yet).
func (k *Kernel) AllowIPC(sender, receiver ThreadID) error {
	if k.Thread(sender) == nil || k.Thread(receiver) == nil {
		return ErrNoSuchThread
	}
	k.whitelist(sender)[receiver] = true
	k.M.CPU.Work(k.comp, 100)
	return nil
}

// RevokeIPC removes receiver from a restricted sender's whitelist.
func (k *Kernel) RevokeIPC(sender, receiver ThreadID) {
	if wl := k.rights[sender]; wl != nil {
		delete(wl, receiver)
		k.M.CPU.Work(k.comp, 80)
	}
}

// UnrestrictIPC returns the sender to the default allow-all regime.
func (k *Kernel) UnrestrictIPC(sender ThreadID) {
	delete(k.rights, sender)
}

// ipcAllowed is the enforcement point, consulted in the IPC preamble.
func (k *Kernel) ipcAllowed(sender, receiver ThreadID) bool {
	wl, restricted := k.rights[sender]
	if !restricted {
		return true
	}
	return wl[receiver]
}
