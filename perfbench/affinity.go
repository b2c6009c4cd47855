package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pbxd and the generator each get a core of their own. Unpinned, the
// scheduler sometimes stacks both on one core, where pbxd wakes less
// often and relays bigger bursts per wake-up, cheaper per packet but
// slower: two regimes, picked at random per run.
const sutCore, genCore = 0, 1

// canPin reports whether the host has the cores pinning needs.
func canPin() bool { return runtime.NumCPU() > genCore }

// setAffinity pins thread tid (0: the calling thread) to core.
func setAffinity(tid, core int) error {
	var mask [16]uint64 // 1024 CPUs, the size of the kernel's cpu_set_t
	mask[core/64] |= 1 << (core % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, core, errno)
	}
	return nil
}

// pinSelf pins every thread of this process to core. Threads the
// runtime starts later inherit the mask of the thread creating them.
func pinSelf(core int) error {
	paths, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return err
	}
	for _, p := range paths {
		tid, err := strconv.Atoi(filepath.Base(p))
		if err != nil {
			continue
		}
		if err := setAffinity(tid, core); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err // ESRCH: the thread exited since the listing
		}
	}
	return nil
}

// startPinned starts start() from a thread pinned to core, so the
// child process it forks inherits that core, and puts the thread back
// on the generator's core afterwards.
func startPinned(core int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, core); err != nil {
		return err
	}
	err := start()
	if perr := setAffinity(0, genCore); perr != nil && err == nil {
		err = perr
	}
	return err
}
