package mkos

import (
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// KVServer is the "minimal extension" of §2.2's complexity argument: a
// from-scratch service that is NOT an existing operating system — here a
// tiny key-value cache. On the microkernel it is one thread with one IPC
// handler: the entire kernel interface it programs against is the IPC
// primitive. Compare vmmos.KVAppliance, the same service as a VMM guest,
// which must stand up a domain, kernel hooks, event channels and grants
// before it can serve its first request.
type KVServer struct {
	K      *mk.Kernel
	Space  *mk.Space
	Thread *mk.Thread

	data map[string][]byte
}

// KV protocol labels.
const (
	LabelKVGet uint32 = 0x200 + iota
	LabelKVPut
	LabelKVDelete
)

// NewKVServer boots the extension: one space, one thread, one handler.
func NewKVServer(k *mk.Kernel) (*KVServer, error) {
	sp, err := k.NewSpace("srv.kv", mk.NilThread)
	if err != nil {
		return nil, err
	}
	s := &KVServer{K: k, Space: sp, data: make(map[string][]byte)}
	s.Thread = k.NewThread(sp, "srv.kv", 4, s.handle)
	return s, nil
}

// Comp returns the server's interned trace attribution handle.
func (s *KVServer) Comp() trace.Comp { return s.Thread.Comp() }

// handle serves get/put/delete. Keys ride in msg.Data up to the first NUL;
// values follow it. A message past a page, which no stub sends, is refused.
func (s *KVServer) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	if uint64(len(msg.Data)) > k.M.Mem.PageSize() {
		return mk.Msg{}, ErrBadRequest
	}
	comp := s.Comp()
	k.M.CPU.Work(comp, 200) // hash, lookup
	key, value := splitKV(msg.Data)
	switch msg.Label {
	case LabelKVGet:
		v, ok := s.data[key]
		if !ok {
			return mk.Msg{Words: []uint64{0}}, nil
		}
		return mk.Msg{Words: []uint64{1}, Data: v}, nil
	case LabelKVPut:
		s.data[key] = append([]byte(nil), value...)
		k.M.CPU.Work(comp, k.M.CPU.CopyCost(uint64(len(value))))
		return mk.Msg{Words: []uint64{1}}, nil
	case LabelKVDelete:
		delete(s.data, key)
		return mk.Msg{Words: []uint64{1}}, nil
	}
	return mk.Msg{}, ErrBadRequest
}

func splitKV(data []byte) (string, []byte) {
	for i, b := range data {
		if b == 0 {
			return string(data[:i]), data[i+1:]
		}
	}
	return string(data), nil
}

// call sends one request from client thread from, refusing one whose key,
// NUL and value do not fit in a page, as vmmos.KVClient does.
func (s *KVServer) call(from mk.ThreadID, label uint32, key string, value []byte) (mk.Msg, error) {
	if uint64(len(key)+1+len(value)) > s.K.M.Mem.PageSize() {
		return mk.Msg{}, ErrKVTooLong
	}
	data := append(append([]byte(key), 0), value...)
	return s.K.Call(from, s.Thread.ID, mk.Msg{Label: label, Data: data})
}

// Get fetches a key on behalf of client thread from. The returned value is
// the client thread's reply registers, valid until that thread's next IPC.
func (s *KVServer) Get(from mk.ThreadID, key string) ([]byte, bool, error) {
	reply, err := s.call(from, LabelKVGet, key, nil)
	if err != nil {
		return nil, false, err
	}
	if reply.Words[0] == 0 {
		return nil, false, nil
	}
	return reply.Data, true, nil
}

// Put stores a key on behalf of client thread from.
func (s *KVServer) Put(from mk.ThreadID, key string, value []byte) error {
	_, err := s.call(from, LabelKVPut, key, value)
	return err
}

// Delete removes a key on behalf of client thread from.
func (s *KVServer) Delete(from mk.ThreadID, key string) error {
	_, err := s.call(from, LabelKVDelete, key, nil)
	return err
}
