package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU times:
// 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// Child is the serving stack running as a child process: this binary
// re-executed in serve mode.
type Child struct {
	Ready readyLine
	// Started is when the process was spawned, for set-up timing.
	Started time.Time

	cmd   *exec.Cmd
	stdin io.WriteCloser
	done  chan error
}

// StartChild spawns the serving child with GOMAXPROCS=2 and waits for its
// ready line.
func StartChild(exe string, cfg StackConfig) (*Child, error) {
	cmd := exec.Command(exe, "serve",
		"-store", cfg.StorePath,
		"-sample", strconv.Itoa(cfg.SampleRows),
		"-cache-mb", strconv.Itoa(cfg.CacheMB))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &Child{cmd: cmd, stdin: stdin, done: make(chan error, 1), Started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serving child: %w", err)
	}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	go func() {
		io.Copy(io.Discard, stdout) //nolint:errcheck // the child prints nothing else
		c.done <- cmd.Wait()
	}()
	if err == nil {
		err = json.Unmarshal(line, &c.Ready)
	}
	if err != nil {
		c.Kill()
		return nil, fmt.Errorf("serving child did not become ready: %w", err)
	}
	return c, nil
}

// Stop asks the child to drain (by closing its stdin) and waits for it to
// exit, killing it if it does not within 10 seconds.
func (c *Child) Stop() error {
	c.stdin.Close() //nolint:errcheck
	select {
	case err := <-c.done:
		return err
	case <-time.After(10 * time.Second):
		c.Kill()
		return fmt.Errorf("serving child did not drain in 10s; killed")
	}
}

// Kill terminates the child at once and waits for it to be reaped.
func (c *Child) Kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	c.stdin.Close()      //nolint:errcheck
	<-c.done
}

// CPUSeconds is the child's user+system CPU time so far, from /proc.
func (c *Child) CPUSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat CPU fields")
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// PeakRSSMB is the child's resident-set high-water mark (VmHWM) in MiB.
func (c *Child) PeakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
