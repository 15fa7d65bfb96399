package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepFor blocks the calling goroutine's thread in nanosleep(2) for d.
//
// The open-loop schedules here space requests 250 µs to 5 ms apart per
// connection. time.Sleep on Linux wakes through the runtime's netpoller,
// whose timeout has millisecond granularity when the process is idle, so
// it overslept by 0.5–0.7 ms at the median on a 2-vCPU host. That error
// lands in every latency measured from the due time and was the whole of
// the GET median. A direct nanosleep overslept by ~0.07 ms there, and by
// ~0.02 ms with the thread's timer slack at 1 ns. It
// parks one OS thread per sleeping sender, which the runtime replaces;
// that stayed cheap at these rates but destabilised a 20k ops/s schedule,
// so the open phases here stay at or below 4k ops/s.
func sleepFor(d time.Duration) {
	// Timer slack (default 50 µs) lets the kernel defer the wake-up to
	// batch timers; 1 ns asks for the wake-up on time. The setting is per
	// thread and the goroutine may have moved, so it is set every time.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
