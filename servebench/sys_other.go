//go:build !linux

package main

import "time"

// sleepFor falls back to time.Sleep off Linux; see sys_linux.go for why
// the Linux build avoids it.
func sleepFor(d time.Duration) { time.Sleep(d) }

// cpuTime is not measured off Linux; proc.cpu_us_per_op then reads 0.
func cpuTime() time.Duration { return 0 }
