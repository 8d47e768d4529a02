package fabric

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"casq/internal/store"
)

// FuzzCoordinatorBodies POSTs arbitrary bytes to the claim, heartbeat or
// complete route (chosen by op%3) of a coordinator holding a two-cell
// sweep with one live lease, lease-1. Nothing may panic, the status is
// one the protocol documents, a rejected call moves no cell, an accepted
// one moves at most one, and the run's progress agrees with the
// coordinator's queue and leases. Seeds: one valid call of each kind, a
// completion to "pending", an unknown field, an empty worker id, null
// and an empty body.
func FuzzCoordinatorBodies(f *testing.F) {
	for _, seed := range []struct {
		op   uint8
		body string
	}{
		{0, `{"worker":"w1"}`},
		{1, `{"lease_id":"lease-1"}`},
		{2, `{"lease_id":"lease-1","state":"computed"}`},
		{2, `{"lease_id":"lease-1","state":"pending"}`},
		{0, `{"worker":"w1","priority":1}`},
		{0, `{"worker":""}`},
		{1, `null`},
		{2, ``},
	} {
		f.Add(seed.op, []byte(seed.body))
	}
	routes := []string{"/fabric/claim", "/fabric/heartbeat", "/fabric/complete"}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		c := NewCoordinator(store.OpenWith(nil, 16), Options{LeaseTTL: time.Hour})
		defer c.Close()
		run, err := c.Submit(testSpec([]int64{1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		if id, _, _, ok := c.claim("w0", time.Now()); !ok || id != "lease-1" {
			t.Fatalf("set-up claim = %q, %v; want lease-1", id, ok)
		}
		before := run.States()

		route := routes[int(op)%len(routes)]
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", route, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusGone, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q: status %d: %s", route, body, rec.Code, rec.Body)
		}

		after := run.States()
		moved := 0
		for i := range after {
			if after[i] != before[i] {
				moved++
			}
		}
		if rec.Code >= 400 && moved != 0 {
			t.Fatalf("%s %q: rejected with %d but moved cells %v -> %v", route, body, rec.Code, before, after)
		}
		if moved > 1 {
			t.Fatalf("%s %q: one call moved %d cells: %v -> %v", route, body, moved, before, after)
		}
		p, st := run.Progress(), c.Stats()
		terminal := p.Cached + p.Computed + p.Failed + p.Skipped
		if p.Total != 2 || p.Done != p.Cached+p.Computed || p.Leased != st.Leases ||
			st.QueueDepth+p.Leased+terminal != p.Total || p.Finished != (terminal == p.Total) {
			t.Fatalf("%s %q: progress %+v disagrees with queue depth %d and %d leases (states %v)",
				route, body, p, st.QueueDepth, st.Leases, after)
		}
	})
}
