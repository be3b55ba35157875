package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned vqiserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error
}

// bootTimeout bounds one boot from spawn to ready.
const bootTimeout = 60 * time.Second

// command is exec.Command for a child that dies with the benchmark: the
// kernel kills it if the benchmark process goes away first.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startServer spawns vqiserve with args plus a loopback :0 listener, waits
// for the first 200 from /readyz, and returns the server together with the
// time from spawn to that response. The server's log goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0")
	cmd := command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	cmd.Stdout = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, log: logf, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		// Tee the log to the file and pick the bound address out of it;
		// the goroutine ends when the process closes its stderr.
		defer close(copied)
		sc := bufio.NewScanner(stderr)
		const marker = "listening on "
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len(marker):]):
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-copied
		s.done <- cmd.Wait()
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, logPath)
	}
	select {
	case s.addr = <-addrc:
	case err := <-s.done:
		s.done <- err
		return fail(fmt.Errorf("vqiserve exited before listening: %v", err))
	case <-time.After(bootTimeout):
		return fail(fmt.Errorf("vqiserve did not listen within %v", bootTimeout))
	}
	client := &http.Client{Timeout: time.Second}
	url := "http://" + s.addr + "/readyz"
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > bootTimeout {
			return fail(fmt.Errorf("vqiserve not ready within %v", bootTimeout))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	defer s.log.Close()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err := <-s.done
		s.done <- err
		return fmt.Errorf("vqiserve did not drain within 20s: %v", err)
	}
}

// exited reports whether the process has ended on its own or does so
// within wait, with the first panic or fatal line of its log when it left
// one.
func (s *server) exited(wait time.Duration) (bool, string) {
	var err error
	select {
	case err = <-s.done:
	default:
		// Checked apart from the timer: a select with both ready picks
		// either.
		select {
		case err = <-s.done:
		case <-time.After(wait):
			return false, ""
		}
	}
	s.done <- err
	return true, crashLine(s.log.Name(), err)
}

func crashLine(logPath string, err error) string {
	raw, _ := os.ReadFile(logPath)
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "panic:") || strings.Contains(line, "fatal error:") {
			return line
		}
	}
	return fmt.Sprintf("exit: %v", err)
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	err := <-s.done
	s.done <- err
	s.log.Close()
}

// peakRSSMiB reads the server's VmHWM.
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// metricsSnap is the subset of the /metrics JSON the benchmark reads.
type metricsSnap struct {
	Counters []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	} `json:"counters"`
	Gauges []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	} `json:"gauges"`
	Histograms []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Count  float64           `json:"count"`
		Sum    float64           `json:"sum"`
	} `json:"histograms"`
}

// flat is a metrics snapshot keyed name{k=v,...}; histograms contribute
// name_count and name_sum entries.
type flat map[string]float64

func metricKey(name string, labels map[string]string, suffix string) string {
	if len(labels) == 0 {
		return name + suffix
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name + suffix + "{")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (s *server) scrape(ctx context.Context) (flat, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var snap metricsSnap
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	f := flat{}
	for _, c := range snap.Counters {
		f[metricKey(c.Name, c.Labels, "")] = c.Value
	}
	for _, g := range snap.Gauges {
		f[metricKey(g.Name, g.Labels, "")] = g.Value
	}
	for _, h := range snap.Histograms {
		f[metricKey(h.Name, h.Labels, "_count")] = h.Count
		f[metricKey(h.Name, h.Labels, "_sum")] = h.Sum
	}
	return f, nil
}

// delta returns after-before for every key of after.
func delta(before, after flat) flat {
	d := flat{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
