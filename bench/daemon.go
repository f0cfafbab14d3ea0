package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the approxmatch module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module approxmatch\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no approxmatch module above the working directory")
		}
		dir = parent
	}
}

// buildAmatchd compiles cmd/amatchd from the checkout into the build
// directory and returns the binary's path.
func buildAmatchd(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "amatchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/amatchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build amatchd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running amatchd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logDone chan struct{}
	lastErr string // last error-level log line, for diagnostics
}

type logLine struct {
	Level string `json:"level"`
	Msg   string `json:"msg"`
	Addr  string `json:"addr"`
	Err   string `json:"err"`
}

// startDaemon spawns amatchd on an ephemeral loopback port, takes the bound
// address from its "serving" log line and returns once /healthz answers
// 200 — that is, after graph load and WAL recovery.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		br := bufio.NewReader(stderr)
		for {
			line, err := br.ReadBytes('\n')
			var l logLine
			if json.Unmarshal(line, &l) == nil {
				if l.Msg == "serving" {
					addrc <- l.Addr
					break
				}
				if l.Level == "ERROR" {
					d.lastErr = l.Msg + ": " + l.Err
				}
			}
			if err != nil {
				close(addrc)
				return
			}
		}
		// The server logs one line per request; keep the pipe drained.
		_, _ = io.Copy(io.Discard, br) // a read error only means the process is gone
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("amatchd exited before serving: %s", d.lastErr)
		}
		d.base = "http://" + addr
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("amatchd did not log its address within 60s")
	}
	hc := newClient()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, err := hc.get(d.base + "/healthz")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.logDone:
			d.kill()
			return nil, fmt.Errorf("amatchd exited before ready: %s", d.lastErr)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("amatchd not ready within 60s (last: %v, status %d)", err, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process and its log reader to end.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.logDone
	_ = d.cmd.Wait() // "signal: killed" is the expected outcome
}

// client is one keep-alive connection; the slice a call returns is reused
// by the next call.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// promSample is a /metrics scrape: full sample name (labels included) to
// value.
type promSample map[string]float64

func parseProm(text []byte) promSample {
	s := promSample{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// serverCounters are the server-layer counts a run reads off /metrics, as
// deltas between two scrapes.
type serverCounters struct {
	CacheHits   float64 `json:"result_cache_hits"`
	CacheMisses float64 `json:"result_cache_misses"`
	HitRatio    float64 `json:"result_cache_hit_ratio"`
	Coalesced   float64 `json:"coalesced"`
	Shed        float64 `json:"shed_503"`
	Partial     float64 `json:"partial"`
}

func counterDelta(before, after promSample) serverCounters {
	d := func(name string) float64 { return after[name] - before[name] }
	c := serverCounters{
		CacheHits:   d("amatchd_result_cache_hits_total"),
		CacheMisses: d("amatchd_result_cache_misses_total"),
		Coalesced:   d(`amatchd_queries_total{endpoint="match",outcome="coalesced"}`),
		Shed:        d(`amatchd_queries_total{endpoint="match",outcome="overload"}`) + d(`amatchd_queries_total{endpoint="match",outcome="mem_overload"}`),
		Partial:     d("amatchd_partial_results_total"),
	}
	c.HitRatio = ratio(c.CacheHits, c.CacheHits+c.CacheMisses)
	return c
}
