package main

import (
	"slices"
	"testing"
)

func TestSpecStreamSeeded(t *testing.T) {
	pool := len(specPool(1))
	a, b := specStream(7, 0, pool, streamLen), specStream(7, 0, pool, streamLen)
	if !slices.Equal(a, b) {
		t.Fatal("same seed drew different streams")
	}
	if slices.Equal(a, specStream(8, 0, pool, streamLen)) {
		t.Error("seeds 7 and 8 drew the same stream")
	}
	if len(a) != streamLen {
		t.Fatalf("stream has %d requests, want %d", len(a), streamLen)
	}
	counts := make([]int, pool)
	for _, i := range a {
		counts[i]++
	}
	top := slices.Max(counts)
	for i, c := range counts {
		if c == 0 {
			t.Errorf("pool spec %d never requested", i)
		}
	}
	// Skew: the most popular spec takes far more than a uniform share.
	if top < 4*streamLen/pool {
		t.Errorf("most requested spec drawn %d times; want a skewed stream", top)
	}
}

func TestClientStreamsOwnTheirSpecs(t *testing.T) {
	pool := len(specPool(1))
	a := clientStreams(7, pool, serveClients, streamLen)
	if !slices.EqualFunc(a, clientStreams(7, pool, serveClients, streamLen), slices.Equal[[]int]) {
		t.Fatal("same seed drew different client streams")
	}
	if slices.EqualFunc(a, clientStreams(8, pool, serveClients, streamLen), slices.Equal[[]int]) {
		t.Error("seeds 7 and 8 drew the same client streams")
	}
	owner := make([]int, pool)
	for i := range owner {
		owner[i] = -1
	}
	total := 0
	for c, stream := range a {
		total += len(stream)
		seen := map[int]bool{}
		var misses []int
		for _, spec := range stream {
			if owner[spec] != -1 && owner[spec] != c {
				t.Fatalf("spec %d requested by clients %d and %d", spec, owner[spec], c)
			}
			owner[spec] = c
			if !seen[spec] {
				seen[spec] = true
				misses = append(misses, spec)
			}
		}
		// The order of a client's first requests is fixed, whatever the seed.
		for i := 1; i < len(misses); i++ {
			if misses[i] != misses[i-1]+serveClients {
				t.Errorf("client %d introduces specs %v, want every %dth spec in pool order", c, misses, serveClients)
				break
			}
		}
	}
	if total != streamLen {
		t.Errorf("client streams hold %d requests, want %d", total, streamLen)
	}
	for i, c := range owner {
		if c == -1 {
			t.Errorf("pool spec %d never requested", i)
		}
	}
}

func TestSpecPoolCoversAppsAndModels(t *testing.T) {
	pool := specPool(3)
	apps, models := map[string]bool{}, map[string]bool{}
	for _, cfg := range pool {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cfg.Nodes != 4 || cfg.Seed != 3 {
			t.Errorf("spec %+v: want 4 nodes, seed 3", cfg)
		}
		apps[cfg.App.String()] = true
		models[cfg.Model.String()] = true
	}
	if len(apps) != 6 || len(models) != 5 {
		t.Errorf("pool covers %d apps and %d models, want 6 and 5", len(apps), len(models))
	}
}
