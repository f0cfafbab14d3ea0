package server

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func parseServingFlags(args ...string) (string, Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	serving := RegisterFlags(fs)
	err := fs.Parse(args)
	graphPath, cfg := serving()
	return graphPath, cfg, err
}

// TestRegisterFlags pins the shared serving flags: the defaults both daemons
// have always started with, each flag landing in its Config field, and the
// removed ablation switches staying removed.
func TestRegisterFlags(t *testing.T) {
	defaults := Config{
		MaxEditDistance:  6,
		QueryTimeout:     30 * time.Second,
		ResultCacheBytes: 64 << 20,
		SharedNLCC:       true,
	}
	with := func(edit func(*Config)) Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		args []string
		path string
		want Config
	}{
		{nil, "", defaults},
		{[]string{"-graph", "g.txt"}, "g.txt", defaults},
		{[]string{"-maxk", "3"}, "", with(func(c *Config) { c.MaxEditDistance = 3 })},
		{[]string{"-querytimeout", "5s"}, "", with(func(c *Config) { c.QueryTimeout = 5 * time.Second })},
		{[]string{"-querytimeout", "0"}, "", with(func(c *Config) { c.QueryTimeout = 0 })},
		{[]string{"-workers", "-1"}, "", with(func(c *Config) { c.Workers = -1 })},
		{[]string{"-max-work", "7"}, "", with(func(c *Config) { c.MaxWork = 7 })},
		{[]string{"-max-bytes", "8"}, "", with(func(c *Config) { c.MaxBytes = 8 })},
		{[]string{"-cache-bytes", "9"}, "", with(func(c *Config) { c.CacheBytes = 9 })},
		{[]string{"-result-cache-bytes", "0"}, "", with(func(c *Config) { c.ResultCacheBytes = 0 })},
		{[]string{"-shared-nlcc=false"}, "", with(func(c *Config) { c.SharedNLCC = false })},
	} {
		path, got, err := parseServingFlags(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if path != tc.path || got != tc.want {
			t.Errorf("%v:\n got %q %+v\nwant %q %+v", tc.args, path, got, tc.path, tc.want)
		}
	}
	for _, gone := range []string{"-no-symmetry", "-no-guards", "-no-relabel"} {
		if _, _, err := parseServingFlags(gone); err == nil {
			t.Errorf("%s still parses; the ablation switches are test-only oracles, not operator flags", gone)
		}
	}
}

// TestServingFlagsDocumented is the drift guard between the one flag
// declaration and the one flag table: every registered flag has a row in
// README.md.
func TestServingFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		// A row starts "| `-name`" or "| `-name ARG`".
		row := "\n| `-" + f.Name
		if !strings.Contains(string(readme), row+"`") && !strings.Contains(string(readme), row+" ") {
			t.Errorf("-%s is registered by RegisterFlags but has no row in README.md's flag table", f.Name)
		}
	})
}
