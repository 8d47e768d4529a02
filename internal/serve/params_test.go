package serve

import (
	"net/http"
	"net/url"
	"slices"
	"testing"

	"casq/internal/device"
	"casq/internal/exec"
)

// FuzzFigureOptions feeds arbitrary raw query strings to the figure and
// correlation query parsers. The request is built by hand, not with
// httptest.NewRequest, which panics on a malformed URL. figureOptions must
// never panic; options it accepts come only from accepted keys, with
// non-negative shots, instances and maxdepth, an empty or registered
// backend, and an engine exec accepts. Seeds: the three perfbench figure
// queries, an unknown parameter, negative shots, a huge shot count, a
// malformed boolean and a bad percent escape.
func FuzzFigureOptions(f *testing.F) {
	for _, q := range []string{
		"fast=1&backend=eagle127&engine=stab&seed=1",
		"fast=1&backend=eagle127&engine=stab&shots=16384&seed=1",
		"fast=1&shots=16&instances=2&maxdepth=2&seed=1",
		"shot=16",
		"shots=-1",
		"shots=2000000000",
		"fast=yes",
		"%zz",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		r := &http.Request{URL: &url.URL{RawQuery: q}}
		for _, accepted := range [][]string{figureParams, correlationParams} {
			opts, err := figureOptions(r, accepted)
			if err != nil {
				continue
			}
			for name := range r.URL.Query() {
				if !slices.Contains(accepted, name) {
					t.Fatalf("%q: accepted unknown parameter %q", q, name)
				}
			}
			if opts.Shots < 0 || opts.Instances < 0 || opts.MaxDepth < 0 {
				t.Fatalf("%q: negative count in shots %d, instances %d, maxdepth %d",
					q, opts.Shots, opts.Instances, opts.MaxDepth)
			}
			if _, ok := device.LookupBackend(opts.Backend); opts.Backend != "" && !ok {
				t.Fatalf("%q: accepted unregistered backend %q", q, opts.Backend)
			}
			if !exec.ValidEngine(opts.Engine) {
				t.Fatalf("%q: accepted engine %q", q, opts.Engine)
			}
		}
	})
}
