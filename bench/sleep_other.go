//go:build !linux

package main

import "time"

// sleep is time.Sleep where there is no nanosleep(2) to call; see
// sleep_linux.go for what that costs.
func sleep(d time.Duration) { time.Sleep(d) }
