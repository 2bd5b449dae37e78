package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pqd child process. Every served run starts a fresh one:
// the final exactly-once check sends DRAIN, and a drained queue sheds
// every insert for the rest of the process's life, so a reused daemon
// would measure nothing but RETRY_AFTER replies.
type daemon struct {
	cmd        *exec.Cmd
	addr       string // wire protocol
	admin      string // /metrics
	readerDone chan struct{}
}

// daemonArgs are pqd's flags for a served workload; dataDir is empty
// for an in-memory queue.
func daemonArgs(w *workload, dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-q",
		"-queues", fmt.Sprintf("%s:%s:%d:%d:%d", queueName, algorithm, w.priorities, w.shards, w.capacity),
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "interval")
	}
	return args
}

// startDaemon execs pqd and returns once it reports its listening
// address (after any WAL replay, which happens before it listens).
func startDaemon(bin string, args []string, procs int) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The kernel kills pqd if this process dies first, so a crashed
	// benchmark leaves no daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pqd: %w", err)
	}
	d := &daemon{cmd: cmd, readerDone: make(chan struct{})}
	lines := make(chan string, 4) // the two address lines, never more than a few
	go func() {
		defer close(d.readerDone)
		defer close(lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody waits any more (exit report); keep draining the pipe
			}
		}
		io.Copy(io.Discard, out)
	}()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for d.addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				d.kill()
				return nil, fmt.Errorf("pqd exited before listening")
			}
			if a, found := strings.CutPrefix(line, "pqd: admin on "); found {
				d.admin = a
			}
			if a, found := strings.CutPrefix(line, "pqd: listening on "); found {
				d.addr = a
			}
		case <-timeout.C:
			d.kill()
			return nil, fmt.Errorf("pqd did not listen within 60s")
		}
	}
	if d.admin == "" {
		d.kill()
		return nil, fmt.Errorf("pqd reported no admin address")
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.readerDone
	d.cmd.Wait()
}

// copyTree copies the regular files under src into dst (a WAL
// directory: segments and snapshots, no links).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
