package vmm

import (
	"errors"
	"strconv"
	"strings"
)

// Store is the hypervisor's shared configuration tree — the XenStore role:
// a hierarchical key-value space domains use to advertise backends and find
// frontends. Every access is a hypercall-priced operation with per-path
// ownership: a domain may write only under its own prefix unless
// privileged, and a path belongs to the domain that first wrote it.
//
// In the real system XenStore lives in Dom0; hosting it in the monitor here
// trades a little fidelity for not entangling the control plane with the
// driver domain's liveness (the experiments kill Dom0 a lot). The paper's
// census cares that the mechanism exists and is a *separate* privileged
// facility — which it is either way.
type Store struct {
	h       *Hypervisor
	entries map[string]string
	owners  map[string]DomID
}

// Store errors.
var (
	ErrStorePerm    = errors.New("vmm: store permission denied")
	ErrStoreNoEntry = errors.New("vmm: store entry not found")
	ErrStoreBadPath = errors.New("vmm: malformed store path")
)

// NewStore attaches a store to the hypervisor.
func NewStore(h *Hypervisor) *Store {
	return &Store{
		h:       h,
		entries: make(map[string]string),
		owners:  make(map[string]DomID),
	}
}

func validPath(path string) bool {
	return strings.HasPrefix(path, "/") && !strings.Contains(path, "//") && len(path) > 1
}

// HomePrefix is the subtree a domain owns by default: an unprivileged
// domain may write only below it, and only paths no other domain wrote
// first.
func HomePrefix(dom DomID) string {
	return "/local/domain/" + strconv.Itoa(int(dom)) + "/"
}

// mayWrite reports whether dom can write path.
func (s *Store) mayWrite(dom DomID, path string) bool {
	d := s.h.dom(dom)
	if d == nil {
		return false
	}
	if d.Privileged {
		return true
	}
	if owner, ok := s.owners[path]; ok {
		return owner == dom
	}
	return strings.HasPrefix(path, HomePrefix(dom))
}

// Write sets path to value. Unprivileged domains write only under their
// home prefix, and never a path another domain wrote first.
func (s *Store) Write(dom DomID, path, value string) error {
	if !validPath(path) {
		return ErrStoreBadPath
	}
	d, err := s.h.lookup(dom)
	if err != nil {
		return err
	}
	s.h.hypercallEntry(d)
	defer s.h.hypercallExit()
	if !s.mayWrite(dom, path) {
		return ErrStorePerm
	}
	s.entries[path] = value
	if _, ok := s.owners[path]; !ok {
		s.owners[path] = dom
	}
	s.h.M.CPU.Work(s.h.comp, 150)
	return nil
}

// Read returns the value at path. Reads are unrestricted, as in XenStore's
// common configuration.
func (s *Store) Read(dom DomID, path string) (string, error) {
	d, err := s.h.lookup(dom)
	if err != nil {
		return "", err
	}
	s.h.hypercallEntry(d)
	defer s.h.hypercallExit()
	v, ok := s.entries[path]
	if !ok {
		return "", ErrStoreNoEntry
	}
	s.h.M.CPU.Work(s.h.comp, 100)
	return v, nil
}
