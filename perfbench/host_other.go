//go:build !linux

package main

// cpuSeconds is unavailable off Linux; host.cores_busy then reads 0.
func cpuSeconds() float64 { return 0 }

// loadAvg1 is unavailable off Linux.
func loadAvg1() float64 { return -1 }
