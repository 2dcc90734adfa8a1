package dsl

import "testing"

// FuzzParseAndAnalyze holds the DSL front end to its contract on
// arbitrary source: it never panics, and it returns a task graph
// exactly when it returns no error.
func FuzzParseAndAnalyze(f *testing.F) {
	f.Add(listing3)
	for _, tc := range errorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseAndAnalyze(src)
		if (g == nil) == (err == nil) {
			t.Fatalf("ParseAndAnalyze(%q) = graph %v, error %v; want exactly one", src, g != nil, err)
		}
	})
}
