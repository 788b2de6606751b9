package main

import (
	"bufio"
	"hash/fnv"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostBuf is the transfer size of the host ceilings: one IC frame's worth, so
// the ceilings are measured on the shape the served path moves.
const hostBuf = 19 << 20

// memcpyMBps is the median copy bandwidth over reps passes of hostBuf bytes.
func memcpyMBps(reps int) float64 {
	src := make([]byte, hostBuf)
	dst := make([]byte, hostBuf)
	for i := range src {
		src[i] = byte(i)
	}
	for i := 0; i < 8; i++ { // fault the pages in and let the clock ramp before timing
		copy(dst, src)
	}
	rates := make([]float64, reps)
	for i := range rates {
		t := time.Now()
		copy(dst, src)
		rates[i] = float64(hostBuf) / 1e6 / time.Since(t).Seconds()
	}
	return median(rates)
}

// fnv64aMBps is the byte-at-a-time FNV-1a rate — the checksum both ends of
// the wire fold over every payload.
func fnv64aMBps(reps int) float64 {
	buf := make([]byte, hostBuf)
	fnv.New64a().Write(buf) // fault the pages in before timing
	rates := make([]float64, reps)
	for i := range rates {
		h := fnv.New64a()
		t := time.Now()
		h.Write(buf)
		rates[i] = float64(hostBuf) / 1e6 / time.Since(t).Seconds()
	}
	return median(rates)
}

// loopbackMBps streams reps buffers of hostBuf bytes over one loopback TCP
// connection with plain Write / ReadFull and returns the bandwidth.
func loopbackMBps(reps int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	werr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			werr <- err
			return
		}
		defer c.Close()
		buf := make([]byte, hostBuf)
		for i := 0; i < reps; i++ {
			if _, err := c.Write(buf); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, hostBuf)
	t := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := io.ReadFull(c, buf); err != nil {
			return 0, err
		}
	}
	el := time.Since(t).Seconds()
	if err := <-werr; err != nil {
		return 0, err
	}
	return float64(reps) * hostBuf / 1e6 / el, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	user, sys := cpuUserSys()
	return user + sys
}

// cpuUserSys is the process's CPU time so far, user and system apart.
func cpuUserSys() (user, sys float64) { return rusage(syscall.RUSAGE_SELF) }

// threadCPU is the calling OS thread's user+system CPU time. The caller must
// hold runtime.LockOSThread, or the goroutine may be measured on two threads.
func threadCPU() float64 {
	user, sys := rusage(syscall.RUSAGE_THREAD)
	return user + sys
}

func rusage(who int) (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// peakRSSMB is VmHWM from /proc/self/status, in MB (0 when unreadable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1000
			}
		}
	}
	return 0
}

// environment is the result file's host block: enough to tell two result
// files from different machines apart before comparing them.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func readEnvironment(commit string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
