// Package store is the content-addressed result cache beneath the sweep
// scheduler, the HTTP serving layer, and the distributed sweep fabric. A
// result is addressed by the SHA-256 fingerprint of its canonical request
// descriptor (experiment id, options, declared parameter space — see
// Fingerprint), so any two requests for the same computation resolve to
// the same Key regardless of who asks or how the descriptor struct is
// laid out.
//
// The store is two-tiered: a bounded in-memory LRU tier answers repeated
// requests without touching anything slow, and a pluggable Backend behind
// it persists results beyond the LRU — JSON files on disk (one per key,
// written atomically via rename, surviving restarts), an unbounded
// in-process map, or a remote store reached over HTTP so worker processes
// on other machines share one coordinator's cache. Payloads are opaque
// bytes — callers decide the encoding — which is what lets the serving
// layer return a cached figure bit-identically from any tier.
package store

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// DefaultMemCapacity bounds the in-memory tier when Open is given a
// non-positive capacity.
const DefaultMemCapacity = 256

// Store is a two-tier (memory LRU + Backend) content-addressed cache. It
// is safe for concurrent use. The zero value is not usable; call Open or
// OpenWith.
type Store struct {
	mu      sync.Mutex
	capMem  int
	backend Backend    // nil = memory-only
	order   *list.List // of Key; front = most recently used
	mem     map[Key]*memEntry
}

type memEntry struct {
	el   *list.Element
	data []byte
}

// Open returns a store rooted at dir, creating it if needed. An empty dir
// makes the store memory-only; memCapacity <= 0 selects
// DefaultMemCapacity entries for the LRU tier.
func Open(dir string, memCapacity int) (*Store, error) {
	if dir == "" {
		return OpenWith(nil, memCapacity), nil
	}
	b, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	return OpenWith(b, memCapacity), nil
}

// OpenWith returns a store over an explicit backend (nil = memory-only).
// memCapacity <= 0 selects DefaultMemCapacity entries for the LRU tier.
func OpenWith(b Backend, memCapacity int) *Store {
	if memCapacity <= 0 {
		memCapacity = DefaultMemCapacity
	}
	return &Store{
		capMem:  memCapacity,
		backend: b,
		order:   list.New(),
		mem:     map[Key]*memEntry{},
	}
}

// Backend returns the persistence tier behind the LRU (nil when
// memory-only).
func (s *Store) Backend() Backend { return s.backend }

// Get returns the payload stored under k. A memory hit refreshes the
// entry's LRU position; a backend hit promotes the entry into the memory
// tier. The second return is false on a clean miss; err is reserved for
// I/O failures. Callers must not mutate the returned slice.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	start := time.Now()
	s.mu.Lock()
	if e, ok := s.mem[k]; ok {
		s.order.MoveToFront(e.el)
		data := e.data
		s.mu.Unlock()
		observeGet(start, true)
		return data, true, nil
	}
	s.mu.Unlock()

	if s.backend == nil || !k.Valid() {
		observeGet(start, false)
		return nil, false, nil
	}
	data, ok, err := s.backend.Load(k)
	if err != nil {
		return nil, false, fmt.Errorf("store: load %s: %w", k, err)
	}
	if !ok {
		observeGet(start, false)
		return nil, false, nil
	}
	s.mu.Lock()
	s.insertLocked(k, data)
	s.mu.Unlock()
	observeGet(start, true)
	return data, true, nil
}

// Put stores the payload under k in the memory tier and, when the store
// has a backend, persists it there first (so a crash mid-Put never leaves
// a memory-tier entry the backend does not hold).
func (s *Store) Put(k Key, data []byte) error {
	if !k.Valid() {
		return fmt.Errorf("store: invalid key %q", k)
	}
	start := time.Now()
	if s.backend != nil {
		if err := s.backend.Store(k, data); err != nil {
			return fmt.Errorf("store: put %s: %w", k, err)
		}
	}
	s.mu.Lock()
	s.insertLocked(k, data)
	s.mu.Unlock()
	mPuts.Inc()
	mPutSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// insertLocked adds or refreshes a memory-tier entry and evicts from the
// LRU tail beyond capacity. Backend entries are never evicted.
func (s *Store) insertLocked(k Key, data []byte) {
	if e, ok := s.mem[k]; ok {
		e.data = data
		s.order.MoveToFront(e.el)
		return
	}
	s.mem[k] = &memEntry{el: s.order.PushFront(k), data: data}
	for s.order.Len() > s.capMem {
		tail := s.order.Back()
		s.order.Remove(tail)
		delete(s.mem, tail.Value.(Key))
		mEvictions.Inc()
	}
}

// Len reports the number of entries currently resident in the memory tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats is a snapshot of one store's state plus the cache counters.
// Backend and MemEntries describe this store; Hits, Misses, Evictions and
// Puts are process totals, read from the casq_store_* counters that every
// Store in the process feeds.
type Stats struct {
	Backend    string `json:"backend"` // "disk", "mem", "http", or "none"
	MemEntries int    `json:"mem_entries"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Puts       uint64 `json:"puts"`
}

// Stats returns the store's backend and memory-tier size with the
// process's cache counters.
func (s *Store) Stats() Stats {
	name := "none"
	if s.backend != nil {
		name = s.backend.Name()
	}
	return Stats{Backend: name, MemEntries: s.Len(),
		Hits: mHits.Value(), Misses: mMisses.Value(), Evictions: mEvictions.Value(), Puts: mPuts.Value()}
}
