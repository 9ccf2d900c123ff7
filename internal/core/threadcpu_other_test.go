//go:build !linux

package core

import "time"

var threadEpoch = time.Now()

// threadCPU falls back to wall-clock time where the thread CPU clock is
// not wired up, so the gate still runs, with preemption charged.
func threadCPU() time.Duration { return time.Since(threadEpoch) }
