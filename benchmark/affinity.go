package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs this process may run on.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// first returns the mask of the lowest CPU in m alone.
func (m cpuMask) first() cpuMask {
	var one cpuMask
	for i, w := range m {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	return one
}

// confine restricts every thread of this process to the CPUs in m. Threads and
// children started afterwards inherit the restriction. The task list is walked
// twice in case a thread was born unrestricted during the first walk.
func confine(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited between the listing and the call.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return nil
}
