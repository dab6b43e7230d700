package cluster

import (
	"bufio"
	"regexp"
	"strings"
	"testing"
	"time"

	"tsgraph/internal/chaos"
	"tsgraph/internal/obs"
)

// TestClusterMetricsExposition registers a live 2-node mesh with an obs
// registry and checks the tscluster_* recovery-counter families render as
// legal Prometheus exposition text: HELP/TYPE headers before samples,
// counters ending in _total, legal names and label syntax, parseable
// values, and a rank label on every sample so several in-process nodes can
// share one registry.
func TestClusterMetricsExposition(t *testing.T) {
	nodes, _ := mesh(t, 2, nil, nil)

	reg := obs.NewRegistry(nil)
	reg.Register(nodes[0])

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	wantFamilies := []string{
		"tscluster_retries_total",
		"tscluster_reconnects_total",
		"tscluster_replayed_frames_total",
		"tscluster_nacks_sent_total",
		"tscluster_nacks_received_total",
		"tscluster_dup_frames_total",
		"tscluster_recoveries_total",
		"tscluster_down_seconds_total",
	}

	help := map[string]bool{}
	typ := map[string]string{}
	samples := map[string]string{}
	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleLineRE := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]Inf|-?[0-9.eE+-]+)$`)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			help[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			typ[parts[0]] = parts[1]
			continue
		}
		m := sampleLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("sample line does not match the exposition grammar: %q", line)
		}
		if !nameRE.MatchString(m[1]) {
			t.Fatalf("illegal metric name %q", m[1])
		}
		if !help[m[1]] || typ[m[1]] == "" {
			t.Fatalf("sample %q has no preceding HELP/TYPE header", m[1])
		}
		samples[m[1]] = m[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, fam := range wantFamilies {
		if !strings.HasSuffix(fam, "_total") && fam != "tscluster_down_seconds_total" {
			t.Fatalf("family %q is a counter but does not end in _total", fam)
		}
		labels, ok := samples[fam]
		if !ok {
			t.Fatalf("scrape is missing family %q\n%s", fam, out)
		}
		if typ[fam] != "counter" {
			t.Fatalf("family %q has TYPE %q, want counter", fam, typ[fam])
		}
		if !strings.Contains(labels, `rank="0"`) {
			t.Fatalf("family %q sample lacks the rank label: %q", fam, labels)
		}
	}
}

// TestRecoveryCountersNackReplay drives the nack/replay cycle with an
// injected receive fault (rank 2's inbound socket severed mid-stream) and
// requires the new counters to advance: the victim sends a nack, some peer
// receives it, and the answers still match the single-process oracle (the
// existing chaos contract — this test just pins the counter plumbing).
func TestRecoveryCountersNackReplay(t *testing.T) {
	const k = 3
	f := newDistFixture(t, k)
	want := tdspReference(t, f)

	seed := chaosSeed(t)
	nodes, meshes := mesh(t, k, f.parts, func(rank int, cfg *Config) {
		cfg.Resilience = testResilience()
		if rank == 2 {
			cfg.Chaos = chaos.New(seed).SetAt(chaos.SiteWireRecv, 10)
		}
	})
	got := runDistributedTDSP(t, f, meshes)
	requireSameArrivals(t, want, got)

	// The nack is sent over the victim's own healthy outgoing link, but
	// delivery is asynchronous relative to the job's barriers — poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		victim := nodes[2].Recovery()
		var recv, recoveries int64
		for _, n := range nodes {
			rc := n.Recovery()
			recv += rc.NacksRecv
			recoveries += rc.Recoveries
		}
		if victim.NacksSent >= 1 && recv >= 1 && recoveries >= 1 {
			t.Logf("victim=%+v total nacksRecv=%d recoveries=%d", victim, recv, recoveries)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nack counters never advanced: victim=%+v total nacksRecv=%d recoveries=%d", victim, recv, recoveries)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
