// Package cloud models the 2013-era IaaS providers the paper studies:
// regions containing availability zones, VM instances with public and
// internal addresses, per-account zone-label permutations, and the
// value-added front-end features whose DNS footprints the paper's
// heuristics detect — Elastic Load Balancers, PaaS environments
// (Heroku, Elastic Beanstalk), CloudFront, Azure Cloud Services, and
// Azure Traffic Manager.
//
// Two properties of the real clouds matter for reproducing the paper
// and are modelled carefully:
//
//   - Public IPs come from published per-region ranges (so DNS answers
//     reveal region), while internal 10/8 addresses are carved into
//     /16 blocks owned by specific availability zones (so internal-
//     address proximity reveals zone — Ristenpart et al.'s cartography).
//   - EC2 zone *labels* are permuted per account: one account's
//     us-east-1a may be another's us-east-1c. Cartography must merge
//     observations across accounts by finding the permutation.
package cloud

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/xrand"
)

// InstanceType names the 2013 EC2 instance sizes used in Table 11.
var InstanceTypes = []string{"t1.micro", "m1.small", "m1.medium", "m1.xlarge", "m3.2xlarge"}

// zoneCounts gives the number of availability zones per EC2 region the
// study could observe (Tables 12, 14 and 16). Azure has no zone concept.
var zoneCounts = map[string]int{
	"ec2.us-east-1":      3,
	"ec2.us-west-1":      2,
	"ec2.us-west-2":      3,
	"ec2.eu-west-1":      3,
	"ec2.ap-northeast-1": 2,
	"ec2.ap-southeast-1": 2,
	"ec2.ap-southeast-2": 2,
	"ec2.sa-east-1":      2,
}

// Instance is one allocated machine: a tenant VM, a physical ELB proxy,
// or a PaaS node. Public-facing allocations always have a PublicIP;
// InternalIP is set for everything inside EC2's private network.
type Instance struct {
	ID         string
	Type       string
	Kind       Kind
	Region     string
	ZoneIndex  int // true (provider-side) zone; -1 when the region has no zones
	PublicIP   netaddr.IP
	InternalIP netaddr.IP
}

// Kind classifies what an Instance is used as.
type Kind string

// Instance kinds.
const (
	KindVM       Kind = "vm"
	KindELBProxy Kind = "elb-proxy"
	KindPaaSNode Kind = "paas-node"
	KindCSNode   Kind = "cs-node"
	KindNS       Kind = "nameserver"
	KindEdge     Kind = "cdn-edge"
)

// Zone is one availability zone of a region.
type Zone struct {
	Region string
	Index  int
	// internalBlocks are the /16 prefixes of 10/8 owned by this zone.
	internalBlocks []netaddr.CIDR
	nextInternal   []uint64 // per-block allocation cursor
}

// Region is one geographic data center with its published address space.
type Region struct {
	ID     string
	Zones  []*Zone
	cidrs  []netaddr.CIDR
	taken  *ipBitmap
	cursor int    // index into cidrs
	offset uint64 // next address within cidrs[cursor]
	// dense is set after the scattered first pass exhausts the ranges;
	// a second pass walks every remaining address before giving up.
	dense bool
}

// ipBitmap is a one-bit-per-address allocation map over a list of
// disjoint CIDRs. It is the collision-check backbone that lets the
// allocator run without retaining *Instance records: the published
// lists guarantee ranges never overlap across regions or providers, so
// a per-region bitmap answers "is this IP taken" exactly as the global
// instance map did, in size/8 bytes instead of O(instances) heap.
type ipBitmap struct {
	cidrs []netaddr.CIDR
	offs  []uint64 // cumulative bit offset of each cidr
	bits  []uint64
}

func newIPBitmap(cidrs []netaddr.CIDR) *ipBitmap {
	b := &ipBitmap{cidrs: cidrs}
	total := uint64(0)
	for _, c := range cidrs {
		b.offs = append(b.offs, total)
		total += c.Size()
	}
	b.bits = make([]uint64, (total+63)/64)
	return b
}

// index maps ip to its bit position, or ok=false when ip is outside
// every covered CIDR.
func (b *ipBitmap) index(ip netaddr.IP) (uint64, bool) {
	for i, c := range b.cidrs {
		if c.Contains(ip) {
			return b.offs[i] + uint64(ip-c.Base), true
		}
	}
	return 0, false
}

func (b *ipBitmap) taken(ip netaddr.IP) bool {
	i, ok := b.index(ip)
	return ok && b.bits[i/64]&(1<<(i%64)) != 0
}

func (b *ipBitmap) set(ip netaddr.IP) {
	if i, ok := b.index(ip); ok {
		b.bits[i/64] |= 1 << (i % 64)
	}
}

// Cloud is one provider's infrastructure.
type Cloud struct {
	Provider ipranges.Provider
	Ranges   *ipranges.List

	mu         sync.Mutex
	regions    map[string]*Region
	regionIDs  []string
	instances  map[netaddr.IP]*Instance // by public IP (retain mode only)
	byInternal map[netaddr.IP]*Instance
	nextID     int
	numAlloc   int
	rng        *xrand.Rand
	// retain keeps per-instance records for the reverse lookups
	// (InstanceAt, InternalFor, Instances). Streaming world generation
	// turns it off so instance count no longer drives heap: collision
	// checks then run purely on the allocation bitmaps, which are
	// maintained in both modes and — because published ranges are
	// disjoint — decide exactly as the maps did.
	retain bool

	// cfCursor allocates CloudFront edge IPs (EC2 cloud only).
	cfCIDRs  []netaddr.CIDR
	cfTaken  *ipBitmap
	cfCursor uint64

	feats *features

	// metrics is read on the probe hot path, so it bypasses mu.
	metrics atomic.Pointer[ProbeMetrics]
}

// New builds a provider model over the published ranges. For EC2 each
// region gets its zone count from the 2013 layout and internal /16
// blocks are dealt out of 10/8 in a seed-determined interleaving; Azure
// regions have a single anonymous zone.
func New(provider ipranges.Provider, ranges *ipranges.List, seed int64) *Cloud {
	c := &Cloud{
		Provider:   provider,
		Ranges:     ranges,
		regions:    make(map[string]*Region),
		instances:  make(map[netaddr.IP]*Instance),
		byInternal: make(map[netaddr.IP]*Instance),
		retain:     true,
		rng:        xrand.SplitSeeded(seed, "cloud/"+string(provider)),
	}
	regionIDs := ranges.Regions(provider)
	// Deal /16 blocks of 10.0.0.0/8 to (region, zone) pairs in a
	// shuffled order so zones interleave through internal address space
	// (the structure Figure 7 visualizes).
	type owner struct {
		region string
		zone   int
	}
	var owners []owner
	for _, rid := range regionIDs {
		zc := zoneCounts[rid]
		if zc == 0 {
			zc = 1
		}
		blocksPerZone := 4
		if rid == "ec2.us-east-1" {
			blocksPerZone = 10
		}
		for z := 0; z < zc; z++ {
			for b := 0; b < blocksPerZone; b++ {
				owners = append(owners, owner{rid, z})
			}
		}
	}
	blockOrder := c.rng.Split("blocks").Perm(256)
	if len(owners) > 256 {
		panic("cloud: internal /16 plan exhausted")
	}
	assignments := make(map[owner][]netaddr.CIDR)
	for i, o := range owners {
		second := blockOrder[i]
		cidr := netaddr.CIDR{Base: netaddr.IP(10<<24 | uint32(second)<<16), Bits: 16}
		assignments[o] = append(assignments[o], cidr)
	}
	for _, rid := range regionIDs {
		zc := zoneCounts[rid]
		if zc == 0 {
			zc = 1
		}
		r := &Region{ID: rid, cidrs: ranges.RegionCIDRs(rid)}
		r.taken = newIPBitmap(r.cidrs)
		for z := 0; z < zc; z++ {
			blocks := assignments[owner{rid, z}]
			r.Zones = append(r.Zones, &Zone{
				Region:         rid,
				Index:          z,
				internalBlocks: blocks,
				nextInternal:   make([]uint64, len(blocks)),
			})
		}
		c.regions[rid] = r
		c.regionIDs = append(c.regionIDs, rid)
	}
	if provider == ipranges.EC2 {
		c.cfCIDRs = ranges.RegionCIDRs("cloudfront.global")
		c.cfTaken = newIPBitmap(c.cfCIDRs)
	}
	c.feats = newFeatures(provider)
	return c
}

// NewEC2 builds the EC2 model over the standard published list.
func NewEC2(seed int64) *Cloud { return New(ipranges.EC2, ipranges.Published(), seed) }

// NewAzure builds the Azure model over the standard published list.
func NewAzure(seed int64) *Cloud { return New(ipranges.Azure, ipranges.Published(), seed) }

// Regions returns the provider's region IDs in published order.
func (c *Cloud) Regions() []string { return append([]string(nil), c.regionIDs...) }

// Region returns a region by ID, or nil.
func (c *Cloud) Region(id string) *Region {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.regions[id]
}

// ZoneCount returns the number of availability zones in region.
func (c *Cloud) ZoneCount(region string) int {
	r := c.Region(region)
	if r == nil {
		return 0
	}
	return len(r.Zones)
}

// allocPublicLocked takes the next public IP of region. Callers hold
// c.mu. The first pass strides irregularly so addresses look scattered;
// once it runs off the end, a dense second pass fills the gaps the
// strides skipped. Only a truly full region panics.
func (c *Cloud) allocPublicLocked(r *Region) netaddr.IP {
	for {
		if r.cursor >= len(r.cidrs) {
			if r.dense {
				panic(fmt.Sprintf("cloud: public range of %s exhausted", r.ID))
			}
			r.dense = true
			r.cursor, r.offset = 0, 0
		}
		cidr := r.cidrs[r.cursor]
		// Skip network/broadcast-ish first addresses.
		step := uint64(1)
		if !r.dense {
			step = uint64(1 + c.rng.Intn(7))
		}
		r.offset += step
		if r.offset >= cidr.Size()-1 {
			r.cursor++
			r.offset = 0
			continue
		}
		ip := cidr.Nth(r.offset)
		if r.taken.taken(ip) {
			continue
		}
		r.taken.set(ip)
		return ip
	}
}

// allocInternalLocked takes the next internal IP in zone z.
func (c *Cloud) allocInternalLocked(z *Zone) netaddr.IP {
	if len(z.internalBlocks) == 0 {
		return 0
	}
	for {
		b := c.rng.Intn(len(z.internalBlocks))
		z.nextInternal[b] += uint64(1 + c.rng.Intn(5))
		if z.nextInternal[b] >= z.internalBlocks[b].Size()-1 {
			continue
		}
		// Per-block cursors only ever advance and each /16 belongs to
		// exactly one zone, so two internal allocations can never land on
		// the same address; no occupancy check is needed.
		return z.internalBlocks[b].Nth(z.nextInternal[b])
	}
}

// Launch allocates an instance in (region, zoneIndex). A zoneIndex of -1
// picks a zone uniformly. It panics on unknown regions — generator bugs
// should fail loudly.
func (c *Cloud) Launch(region string, zoneIndex int, itype string, kind Kind) *Instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.regions[region]
	if r == nil {
		panic(fmt.Sprintf("cloud: unknown region %q", region))
	}
	if zoneIndex < 0 {
		zoneIndex = c.rng.Intn(len(r.Zones))
	}
	if zoneIndex >= len(r.Zones) {
		panic(fmt.Sprintf("cloud: region %s has no zone %d", region, zoneIndex))
	}
	z := r.Zones[zoneIndex]
	c.nextID++
	inst := &Instance{
		ID:        fmt.Sprintf("i-%s%07x", shortProvider(c.Provider), c.nextID),
		Type:      itype,
		Kind:      kind,
		Region:    region,
		ZoneIndex: zoneIndex,
		PublicIP:  c.allocPublicLocked(r),
	}
	if c.Provider == ipranges.EC2 {
		inst.InternalIP = c.allocInternalLocked(z)
		if c.retain {
			c.byInternal[inst.InternalIP] = inst
		}
	}
	c.numAlloc++
	if c.retain {
		c.instances[inst.PublicIP] = inst
	}
	return inst
}

// SetRetain controls whether the cloud keeps per-instance records for
// reverse lookups (InstanceAt, InternalFor, Instances). Streaming
// world generation disables it before the first Launch so heap stays
// flat at any world size; with retain off those lookups report
// nothing. Allocation behaviour — the address sequence handed out —
// is identical in both modes.
func (c *Cloud) SetRetain(retain bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retain = retain
}

func shortProvider(p ipranges.Provider) string {
	if p == ipranges.Azure {
		return "az"
	}
	return "ec2"
}

// AllocCloudFrontIP returns a fresh CloudFront edge address (EC2 only).
func (c *Cloud) AllocCloudFrontIP() netaddr.IP {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cfCIDRs) == 0 {
		panic("cloud: provider has no CDN range")
	}
	for {
		c.cfCursor += uint64(1 + c.rng.Intn(5))
		total := uint64(0)
		for _, cidr := range c.cfCIDRs {
			total += cidr.Size()
		}
		off := c.cfCursor % total
		for _, cidr := range c.cfCIDRs {
			if off < cidr.Size() {
				ip := cidr.Nth(off)
				if !c.cfTaken.taken(ip) {
					c.cfTaken.set(ip)
					c.numAlloc++
					if c.retain {
						c.instances[ip] = &Instance{ID: fmt.Sprintf("cf-%07x", c.cfCursor), Kind: KindEdge, Region: "cloudfront.global", ZoneIndex: -1, PublicIP: ip}
					}
					return ip
				}
				break
			}
			off -= cidr.Size()
		}
	}
}

// InstanceAt returns the instance owning a public IP.
func (c *Cloud) InstanceAt(pub netaddr.IP) (*Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[pub]
	return inst, ok
}

// InternalFor maps a public IP to its internal address, modelling the
// DNS view from inside EC2 (public names resolve to internal IPs there).
func (c *Cloud) InternalFor(pub netaddr.IP) (netaddr.IP, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[pub]
	if !ok || inst.InternalIP == 0 {
		return 0, false
	}
	return inst.InternalIP, true
}

// NumInstances returns the number of allocations made, counted in both
// retain modes.
func (c *Cloud) NumInstances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.numAlloc
}

// Account models a tenant account. EC2 presents zone labels ('a', 'b',
// ...) to each account through a private permutation of the true zones.
type Account struct {
	Name  string
	cloud *Cloud
	perms map[string][]int // region → label index → true zone index
}

// NewAccount creates an account with a fresh random label permutation
// per region (deterministic in the account name and cloud seed).
func (c *Cloud) NewAccount(name string) *Account {
	a := &Account{Name: name, cloud: c, perms: make(map[string][]int)}
	rng := c.rng.Split("account/" + name)
	for _, rid := range c.regionIDs {
		n := c.ZoneCount(rid)
		a.perms[rid] = rng.Perm(n)
	}
	return a
}

// ZoneLabels returns the labels this account sees in region: "a", "b"...
func (a *Account) ZoneLabels(region string) []string {
	n := a.cloud.ZoneCount(region)
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = string(rune('a' + i))
	}
	return out
}

// TrueZone translates an account-visible label to the provider's true
// zone index.
func (a *Account) TrueZone(region, label string) int {
	perm := a.perms[region]
	if len(label) != 1 || label[0] < 'a' || int(label[0]-'a') >= len(perm) {
		panic(fmt.Sprintf("cloud: bad zone label %q in %s", label, region))
	}
	return perm[label[0]-'a']
}

// Launch starts an instance in the zone the account knows by label.
func (a *Account) Launch(region, label, itype string) *Instance {
	return a.cloud.Launch(region, a.TrueZone(region, label), itype, KindVM)
}
