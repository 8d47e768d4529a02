package sweep

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"casq/internal/exec"
	"casq/internal/experiments"
)

// FuzzSpecCells decodes arbitrary bytes as a sweep submit body, the way
// POST /sweeps does (unknown fields rejected), and expands the spec.
// Cells must never panic. A spec it accepts yields at most maxCells
// cells, and each of the first 256 has non-negative counts, a backend
// its experiment declares, an engine it honors and a key. Seeds: the CI
// fleet-smoke body, a 32⁴ grid over the cell cap, an unknown engine, an
// undeclared backend, the empty spec, negativeCountsBody and
// overCapBody.
func FuzzSpecCells(f *testing.F) {
	vals := make([]string, 32)
	for i := range vals {
		vals[i] = strconv.Itoa(i + 1)
	}
	axis := "[" + strings.Join(vals, ",") + "]"
	for _, body := range []string{
		`{"ids":["fig5","table1"],"grid":{"seeds":[1,2]},"fast":true,"base":{"Shots":16,"Instances":2,"MaxDepth":2,"Fast":true}}`,
		`{"ids":["fig5"],"grid":{"seeds":` + axis + `,"shots":` + axis + `,"instances":` + axis + `,"max_depths":` + axis + `}}`,
		`{"ids":["fig3c"],"grid":{"engines":["warp"]}}`,
		`{"ids":["fig5"],"grid":{"backends":["heavyhex29"]}}`,
		`{}`,
		negativeCountsBody,
		overCapBody,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cells, err := spec.Cells()
		if err != nil {
			return
		}
		if len(cells) > maxCells {
			t.Fatalf("%s: expanded to %d cells, over the cap of %d", body, len(cells), maxCells)
		}
		for _, c := range cells[:min(len(cells), 256)] {
			o := c.Opts
			if o.Shots < 0 || o.Instances < 0 || o.MaxDepth < 0 {
				t.Fatalf("%s: cell %s has shots %d, instances %d, max depth %d", body, c.ID, o.Shots, o.Instances, o.MaxDepth)
			}
			sp, ok := experiments.Lookup(c.ID)
			if !ok {
				t.Fatalf("%s: cell of unknown experiment %q", body, c.ID)
			}
			if !sp.SupportsBackend(o.Backend) {
				t.Fatalf("%s: %s cell on undeclared backend %q", body, c.ID, o.Backend)
			}
			if !exec.ValidEngine(o.Engine) || !sp.SupportsEngine(o.Engine) {
				t.Fatalf("%s: %s cell on engine %q", body, c.ID, o.Engine)
			}
			if _, err := c.Key(); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
		}
	})
}
