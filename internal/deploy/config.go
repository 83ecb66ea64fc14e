// Package deploy generates the ground-truth world the measurement study
// rediscovers: a ranked web population whose cloud deployments follow
// the marginal distributions the paper measured, published into a fully
// functional simulated DNS (zones, name servers, delegations) over real
// cloud-model infrastructure (VMs, ELBs, PaaS apps, CDNs, Cloud
// Services, Traffic Manager).
//
// Every allocation is recorded as ground truth on the World, so each
// analysis in internal/core can be validated against what was actually
// deployed — the reproduction's substitute for the authors' manual
// spot-checking.
package deploy

import (
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
)

// Config parameterizes world generation: the seed, the ranked-list
// size, and the plan-phase fan-out. Everything else about the world is
// the paper's calibration, fixed in the constants and tables below.
type Config struct {
	Seed int64
	// NumDomains is the size of the ranked list (the paper's "top 1M",
	// scaled).
	NumDomains int
	// Par bounds and instruments the generator's plan-phase fan-out.
	// The generated world is bit-identical at every worker count: domain
	// plans run in parallel on per-domain split streams, and all shared
	// allocator mutations commit sequentially in rank order.
	Par parallel.Options
}

const (
	// cloudFraction is the fraction of ranked domains using EC2/Azure
	// (~4% in the paper).
	cloudFraction = 0.04
	// topQuarterShare is the fraction of cloud-using domains that fall
	// in the top quarter of the ranking (0.423 in the paper).
	topQuarterShare = 0.423
	// meanCloudSubs controls the heavy-tailed number of cloud-using
	// subdomains per cloud-using domain (paper mean ≈ 17.7).
	meanCloudSubs = 17.7
	// maxCloudSubs caps the tail.
	maxCloudSubs = 400
	// wordlistBias is the probability a subdomain label is drawn from
	// the brute-force dictionary (labels outside it are invisible to
	// dnsmap-style discovery, keeping results a lower bound).
	wordlistBias = 0.90
	// axfrFraction is the fraction of domains answering zone transfers
	// (~8% of the paper's 1M).
	axfrFraction = 0.08
	// geoAffinity is the probability a domain's home region is chosen
	// near its customer country rather than by global popularity.
	geoAffinity = 0.50
	// backendFraction is the probability a VM-front subdomain also runs
	// back-end instances (databases, caches, workers). Back ends are
	// invisible to DNS — the paper explicitly left them to future work —
	// but the generator plants them so the extension analysis in
	// internal/core/backend has ground truth to study.
	backendFraction = 0.5
)

// herokuPoolSize is the size of Heroku's shared routing pool (94
// distinct IPs in the paper), scaled with the n-domain list.
func herokuPoolSize(n int) int { return 6 + n/5000 }

// Pattern is a subdomain's ground-truth front-end deployment shape.
type Pattern string

// Ground-truth deployment patterns. The detector in core/patterns maps
// DNS observations back onto these.
const (
	PatternVM          Pattern = "vm"           // P1: A records to tenant VMs
	PatternELB         Pattern = "elb"          // P2: CNAME to an ELB
	PatternBeanstalk   Pattern = "beanstalk"    // P2 over PaaS: CNAME to Beanstalk env (always ELB)
	PatternHerokuELB   Pattern = "heroku-elb"   // P2 over PaaS: Heroku app fronted by ELB
	PatternHeroku      Pattern = "heroku"       // P3: Heroku without ELB
	PatternOpaqueCNAME Pattern = "opaque-cname" // cloud IP behind an unrecognized CNAME
	PatternHybrid      Pattern = "hybrid"       // A records mixing cloud and other IPs
	PatternAzureCS     Pattern = "azure-cs"     // CNAME to *.cloudapp.net
	PatternAzureIP     Pattern = "azure-ip"     // direct A record to a Cloud Service IP
	PatternAzureTM     Pattern = "azure-tm"     // CNAME to *.trafficmanager.net
	PatternAzureOpaque Pattern = "azure-opaque" // Azure IP behind an unrecognized CNAME
	PatternOther       Pattern = "other"        // hosted outside both clouds
)

// patternWeightsEC2 follows Table 7's estimated shares of EC2-using
// subdomains (VM 71.5%, ELB 3.8%, Beanstalk <0.1%, Heroku 8.2% of which
// ~3% are ELB-fronted, unidentified CNAMEs 16%, hybrid 3%).
var patternWeightsEC2 = map[Pattern]float64{
	PatternVM:          0.680,
	PatternELB:         0.035,
	PatternBeanstalk:   0.0008,
	PatternHerokuELB:   0.0026,
	PatternHeroku:      0.079,
	PatternOpaqueCNAME: 0.160,
	PatternHybrid:      0.030,
}

// patternWeightsAzure follows §4.1's Azure results: 17% direct IP, CS
// CNAMEs dominate the rest, TM 1.5%, ~28% unidentified.
var patternWeightsAzure = map[Pattern]float64{
	PatternAzureCS:     0.525,
	PatternAzureIP:     0.170,
	PatternAzureTM:     0.015,
	PatternAzureOpaque: 0.285,
	PatternHybrid:      0.005,
}

// providerMix follows Table 3's domain-level provider categories.
type providerCategory int

const (
	catEC2Only providerCategory = iota
	catEC2Other
	catAzureOnly
	catAzureOther
	catBoth
)

var providerCategoryWeights = []float64{0.081, 0.861, 0.005, 0.046, 0.007}

// regionWeightsEC2 follows Table 9's EC2 subdomain distribution.
var regionWeightsEC2 = map[string]float64{
	"ec2.us-east-1":      0.78,
	"ec2.eu-west-1":      0.125,
	"ec2.us-west-1":      0.057,
	"ec2.us-west-2":      0.022,
	"ec2.ap-southeast-1": 0.029,
	"ec2.ap-northeast-1": 0.024,
	"ec2.sa-east-1":      0.021,
	"ec2.ap-southeast-2": 0.0008,
}

// regionWeightsAzure follows Table 9's Azure subdomain distribution.
var regionWeightsAzure = map[string]float64{
	"az.us-east":      862,
	"az.us-west":      558,
	"az.us-north":     2071,
	"az.us-south":     1395,
	"az.eu-west":      1035,
	"az.eu-north":     1205,
	"az.ap-southeast": 632,
	"az.ap-east":      502,
}

// zoneWeights gives per-region zone popularity (Table 14's skew).
var zoneWeights = map[string][]float64{
	"ec2.us-east-1":      {0.48, 0.18, 0.34},
	"ec2.us-west-1":      {0.47, 0.53},
	"ec2.us-west-2":      {0.44, 0.32, 0.24},
	"ec2.eu-west-1":      {0.32, 0.27, 0.41},
	"ec2.ap-northeast-1": {0.25, 0.75},
	"ec2.ap-southeast-1": {0.37, 0.63},
	"ec2.ap-southeast-2": {0.5, 0.5},
	"ec2.sa-east-1":      {0.62, 0.38},
}

// zoneCountWeights follows Figure 8a: 33.2% of subdomains in one zone,
// 44.5% in two, 22.3% in three or more.
var zoneCountWeights = []float64{0.332, 0.445, 0.223}

// regionCount distributions (Figure 6a): EC2 97% single region, Azure 92%.
var (
	regionCountWeightsEC2   = []float64{0.97, 0.025, 0.005}
	regionCountWeightsAzure = []float64{0.92, 0.07, 0.01}
)

// DNS-provider kinds and their weights, in the order pickKind draws
// them: most DNS is hosted outside the clouds; route53 (inside
// CloudFront ranges), EC2-VM self-hosting, and Azure hosting cover the
// rest (§4.1's name-server analysis).
var (
	nsKinds       = []string{"external", "route53", "ec2-vm", "azure"}
	nsKindWeights = []float64{0.92, 0.060, 0.017, 0.003}
)

// continentRegionsEC2 lists EC2 regions per continent for geo-affine
// home-region choice.
var continentRegionsEC2 = map[string][]string{
	"NA": {"ec2.us-east-1", "ec2.us-west-1", "ec2.us-west-2"},
	"SA": {"ec2.sa-east-1"},
	"EU": {"ec2.eu-west-1"},
	"AS": {"ec2.ap-southeast-1", "ec2.ap-northeast-1"},
	"OC": {"ec2.ap-southeast-2"},
}

var continentRegionsAzure = map[string][]string{
	"NA": {"az.us-east", "az.us-west", "az.us-north", "az.us-south"},
	"EU": {"az.eu-west", "az.eu-north"},
	"AS": {"az.ap-southeast", "az.ap-east"},
}

// providerOf reports which provider a pattern deploys on.
func providerOf(p Pattern) ipranges.Provider {
	switch p {
	case PatternAzureCS, PatternAzureIP, PatternAzureTM, PatternAzureOpaque:
		return ipranges.Azure
	case PatternOther:
		return ""
	default:
		return ipranges.EC2
	}
}
