package store

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// countingBackend counts the writes reaching one store's backend, so a
// test can pin that store's puts while the casq_store_* counters sum
// every store in the process.
type countingBackend struct {
	Backend
	stores atomic.Int64
}

func (c *countingBackend) Store(k Key, data []byte) error {
	c.stores.Add(1)
	return c.Backend.Store(k, data)
}

// backendsUnderTest enumerates one instance of every Backend kind; the
// HTTP backend is served by a real Store behind an httptest server, so
// the round trip exercises both sides of the wire protocol.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := OpenWith(NewMem(), 8)
	ts := httptest.NewServer(Handler(remote))
	t.Cleanup(ts.Close)
	return map[string]Backend{
		"disk": disk,
		"mem":  NewMem(),
		"http": NewHTTP(ts.URL, nil),
	}
}

func TestBackendRoundTrip(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if b.Name() != name {
				t.Errorf("Name() = %q, want %q", b.Name(), name)
			}
			k := mustKey(t, "roundtrip-"+name)
			if _, ok, err := b.Load(k); ok || err != nil {
				t.Fatalf("load before store = %v, %v", ok, err)
			}
			payload := []byte(`{"id":"fig6","series":[1,2,3]}`)
			if err := b.Store(k, payload); err != nil {
				t.Fatal(err)
			}
			data, ok, err := b.Load(k)
			if err != nil || !ok || !bytes.Equal(data, payload) {
				t.Fatalf("load = %q, %v, %v", data, ok, err)
			}
			// Re-storing the same key (content addressing makes payloads
			// identical) must succeed.
			if err := b.Store(k, payload); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreOverEveryBackend runs the Store's promote-on-hit path over
// each backend kind: an entry evicted from the LRU tier comes back from
// the backend.
func TestStoreOverEveryBackend(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			cb := &countingBackend{Backend: b}
			s := OpenWith(cb, 1)
			evictions0 := mEvictions.Value()
			k1, k2 := mustKey(t, name+"-1"), mustKey(t, name+"-2")
			if err := s.Put(k1, []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k2, []byte("two")); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 1 {
				t.Fatalf("mem tier len = %d, want 1", s.Len())
			}
			data, ok, err := s.Get(k1)
			if err != nil || !ok || string(data) != "one" {
				t.Fatalf("evicted entry lost from backend: %q, %v, %v", data, ok, err)
			}
			// The second Put evicts k1 from the one-entry LRU tier, and
			// promoting k1 back evicts k2.
			if st := s.Stats(); st.Backend != name {
				t.Errorf("stats backend = %q, want %q", st.Backend, name)
			}
			if puts, evictions := cb.stores.Load(), mEvictions.Value()-evictions0; puts != 2 || evictions != 2 {
				t.Errorf("backend writes, evictions = %d, %d; want 2, 2", puts, evictions)
			}
		})
	}
}

// TestStoreConcurrentEviction hammers Put/Get on a store whose LRU tier
// is much smaller than the key population, over every backend kind, so
// promotion, eviction, and backend I/O race each other under -race.
func TestStoreConcurrentEviction(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s := OpenWith(b, 4)
			keys := make([]Key, 24)
			for i := range keys {
				keys[i] = mustKeyErrless(fmt.Sprintf("cc-%s-%d", name, i))
			}
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						k := keys[(w*7+i)%len(keys)]
						if (w+i)%3 == 0 {
							if err := s.Put(k, []byte{byte(w), byte(i)}); err != nil {
								errs <- err
								return
							}
						} else if _, _, err := s.Get(k); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := s.Len(); got > 4 {
				t.Errorf("mem tier overflowed capacity: %d", got)
			}
		})
	}
}

// TestHTTPBackendRejectsInvalidKey pins the wire-level key validation:
// a path-traversal key never reaches the remote store.
func TestHTTPBackendRejectsInvalidKey(t *testing.T) {
	remote := OpenWith(NewMem(), 8)
	ts := httptest.NewServer(Handler(remote))
	t.Cleanup(ts.Close)
	b := NewHTTP(ts.URL, nil)
	if err := b.Store(Key("not-a-key"), []byte("x")); err == nil {
		t.Error("invalid key accepted by remote store")
	}
	if _, ok, err := b.Load(Key("not-a-key")); ok || err == nil {
		t.Errorf("invalid key load = %v, %v", ok, err)
	}
}
