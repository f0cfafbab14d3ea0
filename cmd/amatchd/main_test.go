package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func parseFlags(args ...string) (options, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	err := fs.Parse(args)
	return *o, err
}

// TestRegisterFlags pins amatchd's flags: the defaults the daemon has always
// started with, each flag landing in its field, and removed flags staying
// removed.
func TestRegisterFlags(t *testing.T) {
	defaults := options{
		addr:         ":8080",
		ranksDial:    30 * time.Second,
		walSync:      "always",
		walSyncEvery: 100 * time.Millisecond,
		walCkptEvery: 256,
		walSegBytes:  64 << 20,
	}
	defaults.cfg.MaxEditDistance = 6
	defaults.cfg.QueryTimeout = 30 * time.Second
	defaults.cfg.MaxBodyBytes = 1 << 20
	defaults.cfg.ResultCacheBytes = 64 << 20
	defaults.cfg.SharedNLCC = true
	defaults.cfg.IngestMaxBodyBytes = 16 << 20
	with := func(edit func(*options)) options {
		o := defaults
		edit(&o)
		return o
	}
	for _, tc := range []struct {
		args []string
		want options
	}{
		{nil, defaults},
		{[]string{"-graph", "g.txt"}, with(func(o *options) { o.graph = "g.txt" })},
		{[]string{"-addr", "127.0.0.1:0"}, with(func(o *options) { o.addr = "127.0.0.1:0" })},
		{[]string{"-maxk", "3"}, with(func(o *options) { o.cfg.MaxEditDistance = 3 })},
		{[]string{"-querytimeout", "5s"}, with(func(o *options) { o.cfg.QueryTimeout = 5 * time.Second })},
		{[]string{"-querytimeout", "0"}, with(func(o *options) { o.cfg.QueryTimeout = 0 })},
		{[]string{"-concurrency", "2"}, with(func(o *options) { o.cfg.MaxConcurrent = 2 })},
		{[]string{"-queue", "-1"}, with(func(o *options) { o.cfg.QueueDepth = -1 })},
		{[]string{"-maxbody", "10"}, with(func(o *options) { o.cfg.MaxBodyBytes = 10 })},
		{[]string{"-max-work", "7"}, with(func(o *options) { o.cfg.MaxWork = 7 })},
		{[]string{"-max-bytes", "8"}, with(func(o *options) { o.cfg.MaxBytes = 8 })},
		{[]string{"-cache-bytes", "9"}, with(func(o *options) { o.cfg.CacheBytes = 9 })},
		{[]string{"-result-cache-bytes", "0"}, with(func(o *options) { o.cfg.ResultCacheBytes = 0 })},
		{[]string{"-shared-nlcc=false"}, with(func(o *options) { o.cfg.SharedNLCC = false })},
		{[]string{"-partial-grace", "-1s"}, with(func(o *options) { o.cfg.PartialGrace = -time.Second })},
		{[]string{"-mem-watermark", "11"}, with(func(o *options) { o.cfg.MemHighWatermark = 11 })},
		{[]string{"-ingest"}, with(func(o *options) { o.cfg.EnableIngest = true })},
		{[]string{"-ingest-maxbody", "12"}, with(func(o *options) { o.cfg.IngestMaxBodyBytes = 12 })},
		{[]string{"-ranks-addr", "a:1,b:2"}, with(func(o *options) { o.ranksAddr = "a:1,b:2" })},
		{[]string{"-ranks-timeout", "2s"}, with(func(o *options) { o.ranksTimeout = 2 * time.Second })},
		{[]string{"-ranks-dial-timeout", "0"}, with(func(o *options) { o.ranksDial = 0 })},
		{[]string{"-wal-dir", "w"}, with(func(o *options) { o.walDir = "w" })},
		{[]string{"-wal-sync", "none"}, with(func(o *options) { o.walSync = "none" })},
		{[]string{"-wal-sync-interval", "1s"}, with(func(o *options) { o.walSyncEvery = time.Second })},
		{[]string{"-wal-checkpoint-every", "0"}, with(func(o *options) { o.walCkptEvery = 0 })},
		{[]string{"-wal-segment-bytes", "13"}, with(func(o *options) { o.walSegBytes = 13 })},
	} {
		got, err := parseFlags(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
	for _, gone := range []string{"-no-symmetry", "-no-guards", "-no-relabel", "-workers"} {
		if _, err := parseFlags(gone, "2"); err == nil {
			t.Errorf("%s still parses; it was removed", gone)
		}
	}
}

// TestServingFlagsDocumented is the drift guard between the one flag
// declaration and the one flag table: every amatchd flag has a row in
// README.md.
func TestServingFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		// A row starts "| `-name`" or "| `-name ARG`".
		row := "\n| `-" + f.Name
		if !strings.Contains(string(readme), row+"`") && !strings.Contains(string(readme), row+" ") {
			t.Errorf("-%s has no row in README.md's flag table", f.Name)
		}
	})
}
