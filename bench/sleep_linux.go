package main

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread in nanosleep(2). time.Sleep will not do
// for the modelled flush: a Go program with nothing else to run waits for
// its timers in epoll_wait, whose timeout is in whole milliseconds, so any
// sleep shorter than 1 ms takes 1 ms and the device could not trim it.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
