// Package cartography implements the two availability-zone
// identification techniques of §4.3 (after Ristenpart et al.):
//
//   - Latency method: probe instances in each zone TCP-ping a target;
//     the minimum RTT identifies the probe's zone as the target's when
//     it falls below a threshold T and is uniquely smallest.
//   - Address-proximity method: instances sampled under many accounts
//     give (internal /16 → zone label) evidence; because EC2 permutes
//     zone labels per account, samples are merged by finding, for each
//     account pair, the label permutation maximizing shared-/16
//     agreement. Targets are then identified by their internal /16.
//
// The package also implements the combined estimator (proximity first,
// latency for the remainder) and the veracity comparison of Table 13.
package cartography

import (
	"fmt"
	"sort"
	"time"

	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/xrand"
)

// ThresholdMs is the paper's T: a minimum probe RTT at or above it
// means "unknown".
const ThresholdMs = 1.1

// The latency method's probing setup, as in the paper.
const (
	// probesPerInstance is the TCP pings per probe instance.
	probesPerInstance = 10
	// repeats is how many probe instances' measurements are pooled per
	// zone (the paper repeated the process 5 times).
	repeats = 5
	// busyFraction is the share of targets whose host is loaded enough
	// to inflate even minimum RTTs past useful thresholds — the noise
	// source behind Table 12's 10–30% unknown rates.
	busyFraction = 0.13
)

// missingProbeZones marks (region → zone indexes) where no probe
// instance could be launched, as happened to the authors in
// ap-northeast-1's second zone.
var missingProbeZones = map[string][]int{"ec2.ap-northeast-1": {1}}

// LatencyOutcome is the latency method's verdict for one target.
type LatencyOutcome struct {
	Target *cloud.Instance
	Zone   int // -1 when unknown
}

// LatencyRegionResult aggregates one region's identification run.
type LatencyRegionResult struct {
	Region     string
	Targets    int
	Responding int
	ZoneCounts map[int]int // zone → identified targets
	Unknown    int
	Outcomes   []LatencyOutcome
}

// UnknownRate returns unknown / responding.
func (r *LatencyRegionResult) UnknownRate() float64 {
	if r.Responding == 0 {
		return 0
	}
	return float64(r.Unknown) / float64(r.Responding)
}

// zoneProbes is one zone's probe instances, kept in a slice sorted by
// zone index so probing visits zones in a deterministic order.
type zoneProbes struct {
	zone  int
	insts []*cloud.Instance
}

// IdentifyByLatency runs the latency method over targets grouped by
// region. Probe instances are launched under acct, so the returned zone
// indexes are in acct's label space ('a' = 0, ...) — the same space the
// proximity method reports in when acct is its reference, exactly as in
// the paper where both methods ran from the authors' accounts. A small
// fraction of targets (2%) are treated as unresponsive, like filtered
// hosts in the wild. thresholdMs is T; the study passes ThresholdMs,
// and ablations sweep it.
//
// Probe launches stay sequential (they move the account's allocation
// cursors) and visit regions in sorted order; the per-target probing —
// the expensive part — shards across opt.Par's workers, each shard
// drawing from its own stream split from opt.Seed by shard index. The
// shard layout depends only on the target count, so results are
// bit-identical at every worker count and on every machine. Under
// opt.Chaos, region-scoped loss makes targets unreachable and
// region-scoped brownouts inflate probe RTTs (pushing more verdicts to
// "unknown" without ever flipping one); per-region probe accounting
// lands in opt.Completeness under stage "cartography/latency".
func IdentifyByLatency(c *cloud.Cloud, acct *cloud.Account, targets []*cloud.Instance, thresholdMs float64, opt core.Options) (map[string]*LatencyRegionResult, error) {
	seed, eng := opt.Seed, opt.Chaos
	byRegion := map[string][]*cloud.Instance{}
	var regionOrder []string
	for _, t := range targets {
		if byRegion[t.Region] == nil {
			regionOrder = append(regionOrder, t.Region)
		}
		byRegion[t.Region] = append(byRegion[t.Region], t)
	}
	sort.Strings(regionOrder)

	// Launch every region's probes first, in sorted-region order, so
	// instance allocation is deterministic and workers only read.
	type workItem struct {
		region string
		target *cloud.Instance
	}
	var work []workItem
	probesOf := map[string][]zoneProbes{}
	for _, region := range regionOrder {
		missing := map[int]bool{}
		for _, z := range missingProbeZones[region] {
			missing[z] = true
		}
		var probes []zoneProbes
		for li, label := range acct.ZoneLabels(region) {
			if missing[li] {
				continue
			}
			zp := zoneProbes{zone: li}
			for r := 0; r < repeats; r++ {
				zp.insts = append(zp.insts, acct.Launch(region, label, "m1.medium"))
			}
			probes = append(probes, zp)
		}
		probesOf[region] = probes
		for _, t := range byRegion[region] {
			work = append(work, workItem{region: region, target: t})
		}
	}

	// Probe all targets on the pool; outcome i belongs to work[i]. The
	// chaos phase is the target's index over the work list — the
	// campaign's progress when this target would have been probed — so
	// fault windows land identically at any worker count.
	type outcome struct {
		responding bool
		chaosLost  bool
		zone       int
	}
	outs := make([]outcome, len(work))
	err := parallel.Run(opt.Par, len(work), func(sh parallel.Shard) error {
		rng := xrand.SplitSeeded(seed, fmt.Sprintf("cartography/latency/shard%d", sh.Index))
		for i := sh.Lo; i < sh.Hi; i++ {
			phase := float64(i) / float64(len(work))
			if eng.ProbeLost(work[i].region, work[i].target.ID, phase) {
				outs[i] = outcome{chaosLost: true}
				continue
			}
			if rng.Bool(0.02) {
				continue // unresponsive, like filtered hosts in the wild
			}
			extraMs := eng.RegionExtraMs(work[i].region, phase)
			outs[i] = outcome{
				responding: true,
				zone:       identifyOne(c, rng, probesOf[work[i].region], work[i].target, thresholdMs, extraMs),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in input order on the caller's goroutine.
	results := map[string]*LatencyRegionResult{}
	comp := map[string]*telemetry.Counts{}
	for i, w := range work {
		res := results[w.region]
		if res == nil {
			res = &LatencyRegionResult{Region: w.region, ZoneCounts: map[int]int{}}
			results[w.region] = res
			comp[w.region] = &telemetry.Counts{}
		}
		res.Targets++
		cc := comp[w.region]
		cc.Attempted++
		if outs[i].chaosLost {
			cc.Abandoned++
			continue
		}
		// Naturally unresponsive targets completed their measurement —
		// the verdict is just "filtered" — so only chaos losses count as
		// abandoned work.
		cc.Succeeded++
		if !outs[i].responding {
			continue
		}
		res.Responding++
		res.Outcomes = append(res.Outcomes, LatencyOutcome{Target: w.target, Zone: outs[i].zone})
		if outs[i].zone < 0 {
			res.Unknown++
		} else {
			res.ZoneCounts[outs[i].zone]++
		}
	}
	for _, region := range regionOrder {
		if cc := comp[region]; cc != nil {
			opt.Completeness.Merge("cartography/latency", region, *cc)
		}
	}
	return results, nil
}

// identifyOne applies the paper's decision rule to one target. extraMs
// is chaos brownout latency added to every probe's floor; it shifts all
// of a target's zone minima equally, so it can push verdicts to
// "unknown" (past the threshold) but never flip one zone to another.
func identifyOne(c *cloud.Cloud, rng *xrand.Rand, probes []zoneProbes, target *cloud.Instance, thresholdMs, extraMs float64) int {
	// Loaded targets answer slowly no matter who probes them: a stable
	// per-instance floor that min-of-N cannot strip.
	busyMs := extraMs
	if h := idHash(target.ID); float64(h%1000)/1000 < busyFraction {
		busyMs += 0.4 + float64(h%977)/977*2.6
	}
	type zt struct {
		zone int
		ms   float64
	}
	var times []zt
	for _, zp := range probes {
		min := time.Duration(1<<62 - 1)
		for _, p := range zp.insts {
			if d := c.MinProbeRTT(rng, p, target, probesPerInstance); d < min {
				min = d
			}
		}
		times = append(times, zt{zp.zone, busyMs + float64(min)/float64(time.Millisecond)})
	}
	sort.Slice(times, func(i, j int) bool { return times[i].ms < times[j].ms })
	if len(times) == 0 {
		return -1
	}
	best := times[0]
	// Tie: indistinguishable minima.
	if len(times) > 1 && times[1].ms-best.ms < 0.02 {
		return -1
	}
	if best.ms >= thresholdMs {
		return -1
	}
	return best.zone
}

// idHash folds an instance ID into a stable value.
func idHash(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// --- Address-proximity method ----------------------------------------

// Sample is one instance launched under a measurement account.
type Sample struct {
	Account    string
	Region     string
	Label      string // account-visible zone label ("a", "b", ...)
	InternalIP netaddr.IP
}

// SampleAccounts launches perZone instances in every zone of every
// region under the reference account plus nExtra others, and records
// the account-labelled placements (the paper accumulated 5,096 samples
// over several accounts and years). The reference account's samples
// come first, making it MergeAccounts' label anchor.
//
// It runs in plan/commit form: each account's launch schedule is
// planned on opt.Par's pool (reading only static zone metadata —
// account label permutations are split streams keyed by account name,
// fixed at NewAccount), then every launch commits sequentially in
// account order, because instance allocation moves the cloud's shared
// address cursors. The sample list is identical at every worker count.
// Under opt.Chaos, launches planned for an account that is chaos-dark
// at that point of the campaign are skipped (the paper's accounts hit
// API throttles and closures mid-campaign), and per-account accounting
// lands in opt.Completeness under stage "cartography/sample".
func SampleAccounts(c *cloud.Cloud, ref *cloud.Account, nExtra, perZone int, opt core.Options) ([]Sample, error) {
	eng, comp := opt.Chaos, opt.Completeness
	accounts := []*cloud.Account{ref}
	for ai := 0; ai < nExtra; ai++ {
		accounts = append(accounts, c.NewAccount(fmt.Sprintf("carto-%03d", ai)))
	}
	type launch struct {
		acct          *cloud.Account
		region, label string
	}
	plans, err := parallel.Map(opt.Par, accounts, func(_ int, acct *cloud.Account) ([]launch, error) {
		var ls []launch
		for _, region := range c.Regions() {
			for _, label := range acct.ZoneLabels(region) {
				for i := 0; i < perZone; i++ {
					ls = append(ls, launch{acct: acct, region: region, label: label})
				}
			}
		}
		return ls, nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ls := range plans {
		total += len(ls)
	}
	var samples []Sample
	stats := map[string]*telemetry.Counts{}
	li := 0
	for _, ls := range plans {
		for _, l := range ls {
			phase := float64(li) / float64(total)
			li++
			cc := stats[l.acct.Name]
			if cc == nil {
				cc = &telemetry.Counts{}
				stats[l.acct.Name] = cc
			}
			cc.Attempted++
			if eng.AccountOut(l.acct.Name, phase) {
				cc.Abandoned++
				continue
			}
			cc.Succeeded++
			inst := l.acct.Launch(l.region, l.label, "t1.micro")
			samples = append(samples, Sample{
				Account:    l.acct.Name,
				Region:     l.region,
				Label:      l.label,
				InternalIP: inst.InternalIP,
			})
		}
	}
	if comp != nil {
		for _, acct := range accounts {
			if cc := stats[acct.Name]; cc != nil {
				comp.Merge("cartography/sample", acct.Name, *cc)
			}
		}
	}
	return samples, nil
}

// refSample is one sample with its zone resolved into the reference
// account's label space.
type refSample struct {
	ip   netaddr.IP
	zone int
}

// ProximityMap holds merged samples: per region, internal /16 → zone
// index in the reference account's label space.
type ProximityMap struct {
	// ZoneOf16[region][/16 prefix] = reference zone index.
	ZoneOf16 map[string]map[netaddr.IP]int
	// Reference is the account whose labels index zones.
	Reference string
	// Permutations[account][region][labelIndex] = reference label index.
	Permutations map[string]map[string][]int

	// samples retains merged per-region samples for non-default
	// granularities (the prefix-bits ablation).
	samples map[string][]refSample
}

// mergeKey groups samples by (account, region, label).
type mergeKey struct{ account, region, label string }

// mergeGroups is the arrival-order-free view of a sample set: /16
// evidence sets, raw IPs (sorted), and sorted label lists per account.
type mergeGroups struct {
	groups   map[mergeKey]map[netaddr.IP]bool
	rawIPs   map[mergeKey][]netaddr.IP
	labelsOf map[string]map[string][]string // account → region → sorted labels
}

// regionMerge is one region's independent merge result, folded into the
// ProximityMap in sorted-region order by the commit step.
type regionMerge struct {
	zoneOf16 map[netaddr.IP]int
	perms    map[string][]int // account → permutation
	samples  []refSample
}

// MergeAccounts aligns all accounts' labels to the reference account's
// by maximizing shared-/16 agreement pairwise, then builds the /16 →
// zone map — the label-permutation merge of §4.3. ref names the
// reference (label-anchor) account; "" means the first account seen in
// samples.
//
// The per-region merges fan out over opt.Par with a canonical fold
// order. Given an explicit ref, the result is a pure function of the
// sample SET: non-reference accounts fold in sorted-name order, regions
// merge independently over the sorted region list, and retained samples
// are sorted — so shuffling sample arrival order (or the worker count)
// cannot change the map.
func MergeAccounts(samples []Sample, ref string, opt core.Options) (*ProximityMap, error) {
	if len(samples) == 0 {
		return &ProximityMap{ZoneOf16: map[string]map[netaddr.IP]int{}, Permutations: map[string]map[string][]int{}}, nil
	}
	g := mergeGroups{
		groups:   map[mergeKey]map[netaddr.IP]bool{},
		rawIPs:   map[mergeKey][]netaddr.IP{},
		labelsOf: map[string]map[string][]string{},
	}
	var accounts []string
	seen := map[string]bool{}
	regionSet := map[string]bool{}
	for _, s := range samples {
		k := mergeKey{s.Account, s.Region, s.Label}
		if g.groups[k] == nil {
			g.groups[k] = map[netaddr.IP]bool{}
		}
		g.groups[k][s.InternalIP.Prefix(16)] = true
		g.rawIPs[k] = append(g.rawIPs[k], s.InternalIP)
		if !seen[s.Account] {
			seen[s.Account] = true
			accounts = append(accounts, s.Account)
		}
		regionSet[s.Region] = true
		if g.labelsOf[s.Account] == nil {
			g.labelsOf[s.Account] = map[string][]string{}
		}
		found := false
		for _, l := range g.labelsOf[s.Account][s.Region] {
			if l == s.Label {
				found = true
			}
		}
		if !found {
			g.labelsOf[s.Account][s.Region] = append(g.labelsOf[s.Account][s.Region], s.Label)
		}
	}
	if ref == "" {
		ref = accounts[0]
	}
	// Canonical orders: labels and raw IPs sorted, non-reference
	// accounts by name, regions sorted.
	for _, byRegion := range g.labelsOf {
		for _, labels := range byRegion {
			sort.Strings(labels)
		}
	}
	for _, ips := range g.rawIPs {
		sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	}
	others := make([]string, 0, len(accounts))
	for _, acct := range accounts {
		if acct != ref {
			others = append(others, acct)
		}
	}
	sort.Strings(others)
	regions := make([]string, 0, len(regionSet))
	for r := range regionSet {
		regions = append(regions, r)
	}
	sort.Strings(regions)

	merges := make([]regionMerge, len(regions))
	if err := parallel.Run(opt.Par, len(regions), func(sh parallel.Shard) error {
		for i := sh.Lo; i < sh.Hi; i++ {
			merges[i] = mergeRegion(regions[i], ref, others, &g)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	pm := &ProximityMap{
		ZoneOf16:     map[string]map[netaddr.IP]int{},
		Reference:    ref,
		Permutations: map[string]map[string][]int{},
		samples:      map[string][]refSample{},
	}
	for i, region := range regions {
		pm.ZoneOf16[region] = merges[i].zoneOf16
		pm.samples[region] = merges[i].samples
		for acct, perm := range merges[i].perms {
			if pm.Permutations[acct] == nil {
				pm.Permutations[acct] = map[string][]int{}
			}
			pm.Permutations[acct][region] = perm
		}
	}
	return pm, nil
}

// mergeRegion runs the label-permutation merge for one region. It only
// reads the shared groups, so regions merge concurrently.
func mergeRegion(region, ref string, others []string, g *mergeGroups) regionMerge {
	rm := regionMerge{zoneOf16: map[netaddr.IP]int{}, perms: map[string][]int{}}
	refLabels := g.labelsOf[ref][region]
	// Seed the map from the reference account.
	for li, label := range refLabels {
		for p16 := range g.groups[mergeKey{ref, region, label}] {
			rm.zoneOf16[p16] = li
		}
		for _, ip := range g.rawIPs[mergeKey{ref, region, label}] {
			rm.samples = append(rm.samples, refSample{ip: ip, zone: li})
		}
	}
	// Fold the other accounts in, always merging the account with the
	// strongest /16 overlap against the accumulated map next (ties go
	// to the earliest account in sorted-name order). Accounts with no
	// overlapping evidence are left unmerged rather than guessed at — a
	// wrong permutation would poison the map for every later target in
	// those /16s.
	pending := append([]string(nil), others...)
	for len(pending) > 0 {
		bestAcct, bestScore := -1, 0
		var bestPerm []int
		for pi, acct := range pending {
			labels := g.labelsOf[acct][region]
			score := 0
			perm := bestPermutation(labels, refLabels, func(label string, refIdx int) int {
				agree := 0
				for p16 := range g.groups[mergeKey{acct, region, label}] {
					if zi, ok := rm.zoneOf16[p16]; ok && zi == refIdx {
						agree++
					}
				}
				return agree
			})
			for li, label := range labels {
				for p16 := range g.groups[mergeKey{acct, region, label}] {
					if zi, ok := rm.zoneOf16[p16]; ok && zi == perm[li] {
						score++
					}
				}
			}
			if score > bestScore {
				bestAcct, bestScore, bestPerm = pi, score, perm
			}
		}
		if bestAcct < 0 {
			break // no remaining account shares evidence
		}
		acct := pending[bestAcct]
		pending = append(pending[:bestAcct], pending[bestAcct+1:]...)
		labels := g.labelsOf[acct][region]
		rm.perms[acct] = bestPerm
		for li, label := range labels {
			refIdx := bestPerm[li]
			for p16 := range g.groups[mergeKey{acct, region, label}] {
				if _, ok := rm.zoneOf16[p16]; !ok {
					rm.zoneOf16[p16] = refIdx
				}
			}
			for _, ip := range g.rawIPs[mergeKey{acct, region, label}] {
				rm.samples = append(rm.samples, refSample{ip: ip, zone: refIdx})
			}
		}
	}
	// Canonical retained-sample order, independent of fold history.
	sort.Slice(rm.samples, func(i, j int) bool {
		if rm.samples[i].ip != rm.samples[j].ip {
			return rm.samples[i].ip < rm.samples[j].ip
		}
		return rm.samples[i].zone < rm.samples[j].zone
	})
	return rm
}

// bestPermutation assigns each label an exclusive reference index
// maximizing total agreement (exhaustive over ≤5 labels — regions have
// at most a handful of zones).
func bestPermutation(labels, refLabels []string, agreement func(label string, refIdx int) int) []int {
	n := len(labels)
	m := len(refLabels)
	if m < n {
		m = n
	}
	best := make([]int, n)
	for i := range best {
		best[i] = i
	}
	bestScore := -1
	perm := make([]int, n)
	used := make([]bool, m)
	var rec func(depth, score int)
	rec = func(depth, score int) {
		if depth == n {
			if score > bestScore {
				bestScore = score
				copy(best, perm)
			}
			return
		}
		for idx := 0; idx < m; idx++ {
			if used[idx] {
				continue
			}
			used[idx] = true
			perm[depth] = idx
			rec(depth+1, score+agreement(labels[depth], idx))
			used[idx] = false
		}
	}
	rec(0, 0)
	return best
}

// Identify returns the zone (reference label space) for a target's
// internal IP, or ok=false when no sampled /16 matches.
func (pm *ProximityMap) Identify(region string, internal netaddr.IP) (int, bool) {
	m := pm.ZoneOf16[region]
	if m == nil {
		return 0, false
	}
	z, ok := m[internal.Prefix(16)]
	return z, ok
}

// Index builds a prefix → zone map at an arbitrary granularity for the
// proximity ablation: coarser prefixes match more targets but mix
// zones (majority vote), finer prefixes match fewer.
func (pm *ProximityMap) Index(region string, prefixBits int) map[netaddr.IP]int {
	votes := map[netaddr.IP]map[int]int{}
	for _, s := range pm.samples[region] {
		p := s.ip.Prefix(prefixBits)
		if votes[p] == nil {
			votes[p] = map[int]int{}
		}
		votes[p][s.zone]++
	}
	out := make(map[netaddr.IP]int, len(votes))
	for p, vs := range votes {
		bestZ, bestN := -1, 0
		for z, n := range vs {
			// Ties go to the lowest zone so the index never depends on
			// map iteration order.
			if n > bestN || (n == bestN && z < bestZ) {
				bestZ, bestN = z, n
			}
		}
		out[p] = bestZ
	}
	return out
}

// IdentifyAt identifies via an Index built at prefixBits.
func IdentifyAt(index map[netaddr.IP]int, internal netaddr.IP, prefixBits int) (int, bool) {
	z, ok := index[internal.Prefix(prefixBits)]
	return z, ok
}
