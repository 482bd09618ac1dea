package main

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a shared virtual machine an idle vCPU halts, and waking it waits
// until the host schedules it again. The guest counts that wait as
// steal, and it lands on every event the tier hands from one goroutine
// to another. On the 2-vCPU development VM it swung the measured steal
// between 0 and 60% from minute to minute, and live-local's commit p90
// between 1.75 and 5.0 ms. The idle spinner keeps the CPUs from halting:
// a child process runs one busy loop per CPU at SCHED_IDLE, which the
// kernel preempts at once whenever a thread of this process becomes
// runnable. With it running, steal read under 8% and the p90 1.8–2.2 ms
// through the same spells. It is a separate process so that its CPU
// time and memory stay out of cpu_us_per_sample and peak_rss_mb.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// cpuMask is a Linux cpu_set_t.
type cpuMask [1024 / 64]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, e
	}
	var cpus []int
	for w, x := range m {
		for ; x != 0; x &= x - 1 {
			cpus = append(cpus, w*64+bits.TrailingZeros64(x))
		}
	}
	return cpus, nil
}

// startIdleSpinner starts the spinner child and waits until every one
// of its loops runs at SCHED_IDLE. stop kills the child and waits for
// it to end. If this process dies first, the child is killed
// (Pdeathsig) or sees its stdin close, and exits.
func startIdleSpinner() (cpus int, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(exe, "-spin-idle")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return 0, nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	stop = func() {
		in.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if _, serr := fmt.Sscanf(line, "spinning %d\n", &cpus); err != nil || serr != nil {
		stop()
		return 0, nil, fmt.Errorf("idle spinner did not start: %q, %v", line, err)
	}
	return cpus, stop, nil
}

// spinIdle is the spinner child's body. It reports on stdout once every
// loop runs at SCHED_IDLE, pinned to its own CPU, and exits when its
// stdin closes.
func spinIdle() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(len(cpus) + 1)
	ready := make(chan error)
	for _, cpu := range cpus {
		go func() {
			runtime.LockOSThread()
			var m cpuMask
			m[cpu/64] = 1 << (cpu % 64)
			param := struct{ priority int32 }{}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			if e == 0 {
				_, _, e = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			}
			if e != 0 {
				ready <- fmt.Errorf("cpu %d: %w", cpu, e)
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for range cpus {
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Printf("spinning %d\n", len(cpus))
	io.Copy(io.Discard, os.Stdin)
	return nil
}
