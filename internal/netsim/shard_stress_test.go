package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/stats"
)

// echoLog records one host's delivery history. Each host lives on
// exactly one shard, so the slice is single-writer; per-host sequences
// are the determinism contract the stress test compares across engine
// shapes.
type echoLog map[string][]string

// runEchoWorkload drives a randomized store-and-forward workload over
// a sharded fabric: every host echoes each datagram onward with a
// decremented hop budget, every ordered host pair gets an impaired
// link drawn from the topology seed (jitter strictly below delay, so
// cross-shard lookahead stays positive), and the initial sends are
// scattered across hosts and start times. With shards=1 the group runs
// its one scheduler inline; the same seed at any other
// shard count must reproduce the identical per-host delivery history.
func runEchoWorkload(t *testing.T, seed uint64, shards, hosts int) echoLog {
	t.Helper()
	topo := stats.NewRNG(seed ^ 0x70b0)

	group := NewShardGroup(shards)
	var groups [][]string
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
		groups = append(groups, []string{names[i]})
	}
	hostShard := AssignShards(seed, groups, shards)
	net := NewShardedNetwork(group, stats.NewRNG(seed^0x9e7), hostShard)
	net.SetDefaultProfile(LinkProfile{Delay: time.Millisecond})

	// Random impairments per ordered pair. Draw order is fixed by the
	// loop, so both engine shapes see identical profiles.
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i == j {
				continue
			}
			delay := time.Duration(1+topo.Intn(4)) * time.Millisecond
			p := LinkProfile{
				Delay:  delay,
				Jitter: time.Duration(topo.Intn(int(delay))), // < delay: lookahead > 0
				Loss:   0.05 * topo.Float64(),
			}
			if topo.Float64() < 0.3 {
				p.DupProb = 0.1
			}
			if topo.Float64() < 0.3 {
				p.ReorderProb, p.ReorderDelay = 0.1, 2*time.Millisecond
			}
			net.SetLink(names[i], names[j], p)
		}
	}

	// One slice per host, indexed by host number: each element has a
	// single writer (the host's shard), so the recording itself cannot
	// race even though hosts on different shards log concurrently.
	logs := make([][]string, hosts)
	for i := 0; i < hosts; i++ {
		host := names[i]
		idx := i
		net.Bind(Addr{Host: host, Port: 9}, HandlerFunc(func(now time.Duration, pkt *Packet) {
			hops := pkt.Payload[0]
			path := pkt.Payload[1]
			logs[idx] = append(logs[idx],
				fmt.Sprintf("%d %s->%s hops=%d path=%d", now, pkt.Src.Host, pkt.Dst.Host, hops, path))
			if hops == 0 {
				return
			}
			next := names[(idx+int(path)%(hosts-1)+1)%hosts]
			net.SendFrom(net.ShardOf(host), Addr{Host: host, Port: 9}, Addr{Host: next, Port: 9},
				[]byte{hops - 1, path})
		}))
	}

	// Initial fan-out: 3 datagram paths per host, staggered start times.
	for i := 0; i < hosts; i++ {
		host := names[i]
		sched := net.SchedulerFor(host)
		for p := 0; p < 3; p++ {
			path := byte((i*3 + p) % 251)
			start := time.Duration(1+topo.Intn(2000)) * time.Millisecond
			sched.At(start, func(now time.Duration) {
				next := names[(i+int(path)%(hosts-1)+1)%hosts]
				net.SendFrom(net.ShardOf(host), Addr{Host: host, Port: 9}, Addr{Host: next, Port: 9},
					[]byte{8, path})
			})
		}
	}

	if err := group.Run(30 * time.Second); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	gets, puts := net.PoolStats()
	if gets != puts {
		t.Fatalf("shards=%d: packet pool leak: %d gets vs %d puts", shards, gets, puts)
	}
	if gets == 0 {
		t.Fatalf("shards=%d: no packets moved", shards)
	}
	out := make(echoLog, hosts)
	for i, l := range logs {
		out[names[i]] = l
	}
	return out
}

// TestShardStressEchoDifferential is the randomized cross-shard
// handoff/barrier stress: several seeded topologies, each run on the
// one-shard group and at 2/3/4 shards, demanding identical
// per-host delivery histories. Run under -race (make race / verify)
// this doubles as the data-race gate on the barrier protocol. Failing
// seeds are logged for replay.
func TestShardStressEchoDifferential(t *testing.T) {
	const hosts = 6
	for round := 0; round < 4; round++ {
		seed := uint64(0x5eed0 + round*7919)
		t.Logf("round %d: topology seed %#x", round, seed)
		want := runEchoWorkload(t, seed, 1, hosts)
		for _, shards := range []int{2, 3, 4} {
			got := runEchoWorkload(t, seed, shards, hosts)
			if len(got) != len(want) {
				t.Fatalf("seed %#x shards=%d: %d hosts logged, want %d", seed, shards, len(got), len(want))
			}
			for host, w := range want {
				g := got[host]
				if len(g) != len(w) {
					t.Errorf("seed %#x shards=%d host %s: %d deliveries, want %d",
						seed, shards, host, len(g), len(w))
					continue
				}
				for i := range w {
					if g[i] != w[i] {
						t.Errorf("seed %#x shards=%d host %s delivery %d:\n got  %s\n want %s",
							seed, shards, host, i, g[i], w[i])
						break
					}
				}
			}
		}
	}
}

// TestAssignShardsPureFunction pins the placement contract: the shard
// of a host is a pure function of (seed, groups, shard count) —
// independent of group order, member order within a group, map
// iteration, and GOMAXPROCS.
func TestAssignShardsPureFunction(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	rng := stats.NewRNG(0xa551)
	for trial := 0; trial < 50; trial++ {
		seed := rng.Uint64()
		nGroups := 1 + rng.Intn(6)
		n := 1 + rng.Intn(5)
		var groups [][]string
		id := 0
		for g := 0; g < nGroups; g++ {
			var grp []string
			for m := 0; m <= rng.Intn(3); m++ {
				grp = append(grp, fmt.Sprintf("host-%d", id))
				id++
			}
			groups = append(groups, grp)
		}
		want := AssignShards(seed, groups, n)

		// Permute group order and member order.
		perm := make([][]string, len(groups))
		for i, g := range groups {
			cp := append([]string(nil), g...)
			for k := len(cp) - 1; k > 0; k-- {
				j := rng.Intn(k + 1)
				cp[k], cp[j] = cp[j], cp[k]
			}
			perm[i] = cp
		}
		for k := len(perm) - 1; k > 0; k-- {
			j := rng.Intn(k + 1)
			perm[k], perm[j] = perm[j], perm[k]
		}

		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, in := range [][][]string{groups, perm} {
				got := AssignShards(seed, in, n)
				if len(got) != len(want) {
					t.Fatalf("trial %d procs=%d: %d hosts assigned, want %d", trial, procs, len(got), len(want))
				}
				for host, shard := range want {
					if got[host] != shard {
						t.Fatalf("trial %d procs=%d host %s: shard %d, want %d",
							trial, procs, host, got[host], shard)
					}
				}
			}
		}
	}
}
