package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reordered pairs: identical fields and values, different declaration
// order. Canonical fingerprinting must give them the same address.
type descA struct {
	ID        string  `json:"id"`
	Seed      int64   `json:"seed"`
	Shots     int     `json:"shots"`
	Fast      bool    `json:"fast"`
	Threshold float64 `json:"threshold"`
}

type descB struct {
	Threshold float64 `json:"threshold"`
	Fast      bool    `json:"fast"`
	Shots     int     `json:"shots"`
	ID        string  `json:"id"`
	Seed      int64   `json:"seed"`
}

func TestFingerprintFieldOrderIndependent(t *testing.T) {
	a := descA{ID: "fig3c", Seed: 1<<62 + 12345, Shots: 240, Fast: true, Threshold: 0.25}
	b := descB{ID: "fig3c", Seed: 1<<62 + 12345, Shots: 240, Fast: true, Threshold: 0.25}
	ka, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("reordered descriptors hash differently:\n  %s\n  %s", ka, kb)
	}
	if !ka.Valid() {
		t.Errorf("fingerprint %q not a valid key", ka)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := descA{ID: "fig3c", Seed: 11, Shots: 240}
	k0, _ := Fingerprint(base)
	perturbed := []descA{
		{ID: "fig3d", Seed: 11, Shots: 240},
		{ID: "fig3c", Seed: 12, Shots: 240},
		{ID: "fig3c", Seed: 11, Shots: 241},
		{ID: "fig3c", Seed: 11, Shots: 240, Fast: true},
		{ID: "fig3c", Seed: 11, Shots: 240, Threshold: 1e-9},
	}
	for _, p := range perturbed {
		k, err := Fingerprint(p)
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("distinct descriptor %+v collides with base", p)
		}
	}
	// Large seeds must not be rounded through float64: 2^60 and 2^60+1
	// differ only below float64 precision at that magnitude.
	k1, _ := Fingerprint(descA{Seed: 1 << 60})
	k2, _ := Fingerprint(descA{Seed: 1<<60 + 1})
	if k1 == k2 {
		t.Error("adjacent 64-bit seeds collide (float64 round-trip?)")
	}
}

func TestFingerprintNestedMapsAndSlices(t *testing.T) {
	k1, err := Fingerprint(map[string]any{"axes": []any{map[string]any{"b": 2, "a": 1}}, "id": "x"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Fingerprint(map[string]any{"id": "x", "axes": []any{map[string]any{"a": 1, "b": 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("map key order leaked into fingerprint")
	}
	// Slice order is significant.
	k3, _ := Fingerprint(map[string]any{"id": "x", "axes": []any{2, 1}})
	k4, _ := Fingerprint(map[string]any{"id": "x", "axes": []any{1, 2}})
	if k3 == k4 {
		t.Error("slice order must be significant")
	}
}

func TestKeyValid(t *testing.T) {
	good := Key("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	if !good.Valid() {
		t.Error("64-hex key rejected")
	}
	bad := []Key{"", "short", Key("../../../../etc/passwd"),
		Key("0123456789ABCDEF0123456789abcdef0123456789abcdef0123456789abcdef")}
	for _, k := range bad {
		if k.Valid() {
			t.Errorf("key %q accepted", k)
		}
	}
}

func mustKey(t *testing.T, v any) Key {
	t.Helper()
	k, err := Fingerprint(v)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestMemoryRoundTrip(t *testing.T) {
	s, err := Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := mHits.Value(), mMisses.Value()
	k := mustKey(t, "payload-1")
	if _, ok, _ := s.Get(k); ok {
		t.Fatal("hit before put")
	}
	if err := s.Put(k, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(k)
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("get = %q, %v, %v", data, ok, err)
	}
	if hits, misses := mHits.Value()-hits0, mMisses.Value()-misses0; hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	s, _ := Open("", 3)
	evictions0 := mEvictions.Value()
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = mustKey(t, i)
		if err := s.Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", s.Len())
	}
	// 0 and 1 were least recently used: evicted.
	for i := 0; i < 2; i++ {
		if _, ok, _ := s.Get(keys[i]); ok {
			t.Errorf("key %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok, _ := s.Get(keys[i]); !ok {
			t.Errorf("key %d missing", i)
		}
	}
	// Touch the oldest survivor, insert one more: the untouched middle
	// entry is evicted instead.
	if _, ok, _ := s.Get(keys[2]); !ok {
		t.Fatal("key 2 missing")
	}
	k5 := mustKey(t, 5)
	s.Put(k5, []byte{5})
	if _, ok, _ := s.Get(keys[3]); ok {
		t.Error("key 3 should be the LRU victim after key 2 was touched")
	}
	if _, ok, _ := s.Get(keys[2]); !ok {
		t.Error("recently touched key 2 evicted")
	}
	if n := mEvictions.Value() - evictions0; n != 3 {
		t.Errorf("evictions = %d, want 3", n)
	}
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "persisted")
	payload := []byte(`{"id":"fig6","series":[1,2,3]}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, string(k)+".json")); err != nil {
		t.Fatalf("disk entry missing: %v", err)
	}
	// A fresh store over the same dir serves the entry from disk...
	s2, _ := Open(dir, 2)
	data, ok, err := s2.Get(k)
	if err != nil || !ok || !bytes.Equal(data, payload) {
		t.Fatalf("reopen get = %q, %v, %v", data, ok, err)
	}
	// ...and promotes it into the memory tier.
	if s2.Len() != 1 {
		t.Errorf("disk hit not promoted to memory tier: len=%d", s2.Len())
	}
	// No stray temp files left behind.
	glob, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(glob) != 0 {
		t.Errorf("temp files left behind: %v", glob)
	}
}

func TestDiskSurvivesMemEviction(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 1)
	k1, k2 := mustKey(t, 1), mustKey(t, 2)
	s.Put(k1, []byte("one"))
	s.Put(k2, []byte("two")) // evicts k1 from memory, not from disk
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	data, ok, err := s.Get(k1)
	if err != nil || !ok || string(data) != "one" {
		t.Fatalf("evicted entry lost from disk: %q, %v, %v", data, ok, err)
	}
}

func TestPutRejectsInvalidKey(t *testing.T) {
	s, _ := Open(t.TempDir(), 2)
	if err := s.Put(Key("../escape"), []byte("x")); err == nil {
		t.Error("invalid key accepted")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, _ := Open("", 8)
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				k := mustKeyErrless(fmt.Sprintf("k%d", i%12))
				if i%2 == 0 {
					err = s.Put(k, []byte{byte(i)})
				} else {
					_, _, err = s.Get(k)
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func mustKeyErrless(v any) Key {
	k, err := Fingerprint(v)
	if err != nil {
		panic(err)
	}
	return k
}
