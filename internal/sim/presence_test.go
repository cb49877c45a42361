package sim

import (
	"errors"
	"testing"

	"cchunter/internal/cache"
	"cchunter/internal/mitigate"
	"cchunter/internal/stats"
)

// checkPresence asserts the L2's core-presence bits are exact: bit k
// of block b is set exactly when core k's L1 holds the line block b
// holds. It also checks inclusion through the back-pointers: every
// line an L1 holds sits in the L2 block its pointer names. It returns
// the number of blocks with two or more bits set.
func checkPresence(t *testing.T, s *System, when string) (shared int) {
	t.Helper()
	for b := 0; b < s.l2.NumBlocks(); b++ {
		line, valid := s.l2.LineAt(uint32(b))
		mask := s.presence[b]
		for k, co := range s.cores {
			held := valid && co.l1.Contains(line<<s.lineShift)
			if set := mask>>k&1 == 1; set != held {
				t.Fatalf("%s: L2 block %d (line %#x, valid %v): core %d bit %v, L1 holds the line %v",
					when, b, line, valid, k, set, held)
			}
		}
		if mask&(mask-1) != 0 {
			shared++
		}
	}
	for k, co := range s.cores {
		for b := 0; b < co.l1.NumBlocks(); b++ {
			line, valid := co.l1.LineAt(uint32(b))
			if !valid {
				continue
			}
			if l2line, ok := s.l2.LineAt(co.l2Block[b]); !ok || l2line != line {
				t.Fatalf("%s: core %d L1 block %d holds line %#x, but its L2 block %d holds %#x (valid %v)",
					when, k, b, line, co.l2Block[b], l2line, ok)
			}
		}
	}
	return shared
}

// TestPresenceBitsExact runs random multi-core traffic over a line
// pool shared by every process and far larger than the L2, on a small
// machine where L1 and L2 evictions are frequent, and checks the
// presence bits after every chunk of simulated time — unpartitioned,
// way-partitioned, and with processes migrating between cores.
func TestPresenceBitsExact(t *testing.T) {
	small := func() Config {
		cfg := TestConfig()
		cfg.QuantumCycles = 20_000
		cfg.L1 = cache.Config{SizeBytes: 2 << 10, LineBytes: 64, Ways: 4, HitLatency: 4}
		cfg.L2 = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 12}
		return cfg
	}
	cases := map[string]func(*Config){
		"plain": func(*Config) {},
		"partitioned": func(cfg *Config) {
			cfg.Mitigations.Partition = mitigate.NewCachePartition(cfg.Contexts(), []int{0, 0, 1, 1, 2, 2, 3, 3})
		},
		"migrating": func(cfg *Config) { cfg.MigrationProb = 0.5 },
		"partitioned-migrating": func(cfg *Config) {
			cfg.Mitigations.Partition = mitigate.NewCachePartition(cfg.Contexts(), nil)
			cfg.MigrationProb = 0.3
		},
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := small()
			tweak(&cfg)
			s := MustNew(cfg)
			for p := 0; p < 6; p++ {
				r := stats.NewRNG(uint64(p) + 1)
				s.Spawn(loop("loader", func(*Machine, int) []Op {
					if r.Intn(4) != 0 {
						return []Op{load(uint64(r.Intn(600)) << 6)}
					}
					batch := make([]uint64, 4)
					for i := range batch {
						batch[i] = uint64(r.Intn(600)) << 6
					}
					return []Op{loadN(batch)}
				}))
			}
			shared := 0
			for chunk := uint64(1); chunk <= 40; chunk++ {
				s.Run(chunk * 25_000)
				shared += checkPresence(t, s, name)
			}
			if s.L2Stats().Evictions == 0 || shared == 0 {
				t.Fatalf("%d L2 evictions, %d shared blocks seen: the back-invalidation path went unchecked",
					s.L2Stats().Evictions, shared)
			}
			if cfg.MigrationProb > 0 && s.SchedStats().Migrations == 0 {
				t.Fatal("no process migrated")
			}
		})
	}
}

// TestCoreCountCappedAtEight: the presence bits are a byte per L2
// block, so New accepts 8 cores and rejects 9.
func TestCoreCountCappedAtEight(t *testing.T) {
	cfg := TestConfig()
	cfg.Cores = MaxCores
	MustNew(cfg)
	cfg.Cores = MaxCores + 1
	if s, err := New(cfg); err == nil || s != nil || !errors.Is(err, ErrBadConfig) {
		t.Fatalf("9 cores: got %v, %v; want an ErrBadConfig error", s, err)
	}
}

// TestContextIDsFitBelowNoContext: context IDs are bytes and
// trace.NoContext (255) marks "no context" in events, so New accepts
// 255 contexts and rejects 256 (8 × 32, whose last context would be
// 255) as well as counts that would wrap a byte (8 × 33).
func TestContextIDsFitBelowNoContext(t *testing.T) {
	cfg := TestConfig()
	cfg.Cores, cfg.ThreadsPerCore = 5, 51
	if g := MustNew(cfg).Geometry(); g.Contexts != 255 {
		t.Fatalf("5 × 51: %d contexts, want 255", g.Contexts)
	}
	for _, threads := range []int{32, 33} {
		cfg.Cores, cfg.ThreadsPerCore = 8, threads
		if s, err := New(cfg); err == nil || s != nil || !errors.Is(err, ErrBadConfig) {
			t.Fatalf("8 × %d: got %v, %v; want an ErrBadConfig error", threads, s, err)
		}
	}
}

// TestLineSizesMustMatch: back-invalidation maps each L2 line onto one
// L1 line, so New rejects L1 and L2 line sizes that differ.
func TestLineSizesMustMatch(t *testing.T) {
	cfg := TestConfig()
	cfg.L1.LineBytes = 32
	if s, err := New(cfg); err == nil || s != nil || !errors.Is(err, ErrBadConfig) {
		t.Fatalf("32B L1 lines under 64B L2 lines: got %v, %v; want an ErrBadConfig error", s, err)
	}
}
