package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one temporald child process, listening on an ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan error
	client *http.Client
}

// live tracks running daemons so that an aborted run can still stop
// them before it exits.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon boots temporald with -addr 127.0.0.1:0 -addr-file and the
// extra flags, and returns once it listens. conns bounds the connections
// the returned daemon's client opens.
func startDaemon(bin, dir string, conns int, extra ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "temporald.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start temporald: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			if _, _, err := net.SplitHostPort(string(b)); err == nil {
				d.addr = string(b)
				break
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.stop()
			return nil, fmt.Errorf("temporald exited before listening: %v (see %s)", err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("temporald did not listen within 30s")
		}
	}
	d.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return d, nil
}

// stop sends SIGTERM, so the daemon drains and flushes its store, and
// waits for it to exit; after 10 s it kills it. It returns the exit error.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-d.exited
		if err == nil {
			err = errors.New("temporald ignored SIGTERM")
		}
	}
	d.exited <- err
	d.log.Close()
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	return err
}

// killLive stops every daemon still running.
func killLive() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// classifyResponse mirrors temporald's POST /classify success body.
type classifyResponse struct {
	Formula        string   `json:"formula"`
	Class          string   `json:"class"`
	Classes        []string `json:"classes"`
	ObligationRank int      `json:"obligation_rank"`
	ReactivityRank int      `json:"reactivity_rank"`
	States         int      `json:"states"`
	Pairs          int      `json:"pairs"`
	Plan           string   `json:"plan"`
	DurationUS     int64    `json:"duration_us"`
}

// classify posts one request body and returns the response body, which
// the caller decodes after the clock stops, so the load generator spends
// as little as it can of the processors it shares with the daemon. A
// non-200 status is an error.
func (d *daemon) classify(body []byte) ([]byte, error) {
	resp, err := d.client.Post("http://"+d.addr+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /classify: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// metrics scrapes /metrics into a map from series (name plus labels, as
// exposed) to value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
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
	return out, sc.Err()
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// daemonHasFlag reports whether temporald -h lists the flag.
func daemonHasFlag(bin, flag string) bool {
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	return bytes.Contains(out, []byte("-"+flag+" "))
}
