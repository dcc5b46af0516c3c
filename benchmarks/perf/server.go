package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one skserve child bound to a free loopback port, plus the one
// keep-alive connection every request and scrape of a run goes over.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	dir    string
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches skserve on dir and waits until /healthz answers ok.
// Cancelling ctx (watchdog, signal) sends the child SIGTERM; stop must
// still be called to wait for it.
func startServer(ctx context.Context, bin, dir string, w workload) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-dir", dir, "-slowquery", "0", "-sig", strconv.Itoa(w.sig)}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.wal {
		// Flush policy: one fsync per acknowledged mutation.
		args = append(args, "-wal", "-wal-fsync", "0")
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start skserve: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		dir:  dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		if err := s.getJSON(ctx, "/healthz", &h); err == nil && h.Status == "ok" {
			return s, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("skserve on %s did not become healthy", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM (skserve drains and checkpoints) and waits for exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	done := time.AfterFunc(10*time.Second, func() { s.cmd.Process.Kill() })
	s.cmd.Wait() //nolint:errcheck // exit status of a stopped child carries nothing
	done.Stop()
}

// do sends one request and drains the body. It returns the status, the
// body, and the wall time from just before the send to the last body byte.
func (s *server) do(ctx context.Context, method, path, body string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, elapsed, err
}

func (s *server) getJSON(ctx context.Context, path string, v any) error {
	status, data, _, err := s.do(ctx, "GET", path, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(data, v)
}

// counters is a scrape of /metrics: sample line name (with labels) → value.
type counters map[string]float64

func (s *server) scrape(ctx context.Context) (counters, error) {
	status, data, _, err := s.do(ctx, "GET", "/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := counters{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sub returns the per-sample difference c − earlier.
func (c counters) sub(earlier counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - earlier[k]
	}
	return out
}

// serverStats is the part of /stats the harness reads.
type serverStats struct {
	Engine engineStats   `json:"engine"`
	Shards []engineStats `json:"shards"`
}

type engineStats struct {
	Objects    int
	TreeHeight int
}

// cpuTime returns the child's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (USER_HZ is 100 on
	// every Linux port Go supports).
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// rss returns the child's current resident set in bytes.
func (s *server) rss() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb * 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// dirBytes sums the sizes of every file under the data directory; prefix
// restricts the sum to files whose name starts with it ("" = all).
func (s *server) dirBytes(prefix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), prefix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
