package capture

import (
	"cloudscope/internal/ipranges"
)

// Protocol flow mixes per cloud, from Table 2's flow columns
// (normalized). EC2 traffic is HTTP-flow-heavy; Azure has a visible
// Other-UDP component.
var flowKindWeights = map[ipranges.Provider][]float64{
	// Order follows Kinds: ICMP, HTTP, HTTPS, DNS, OtherTCP, OtherUDP.
	ipranges.EC2:   {0.0003, 0.7045, 0.0652, 0.1033, 0.0040, 0.0019},
	ipranges.Azure: {0.0018, 0.6541, 0.0692, 0.1159, 0.0110, 0.1477},
}

// cloudFlowSplit is Table 1's flow split: EC2 80.7%, Azure 19.3%.
var cloudFlowSplit = map[ipranges.Provider]float64{
	ipranges.EC2:   0.807,
	ipranges.Azure: 0.193,
}

// trafficAnchor pins a domain's share of the capture's total HTTP(S)
// byte volume (Table 5), its protocol bias, and whether it is in the
// Alexa population or capture-only.
type trafficAnchor struct {
	domain string
	cloud  ipranges.Provider
	// share of total HTTP(S) volume across both clouds.
	share float64
	// httpsBias is the probability a flow for this domain is HTTPS.
	httpsBias float64
	// hosts are subdomain labels used in Host/SNI/CN values.
	hosts []string
	// meanObject is the mean per-flow transfer in bytes (heavy-tailed
	// around it).
	meanObject float64
}

// trafficAnchors reproduces Table 5's rows. dropbox.com dominates with
// ~68% of HTTP(S) volume, carried over HTTPS — which is what makes
// HTTPS 73% of capture bytes while being only 6.6% of flows.
var trafficAnchors = []trafficAnchor{
	{"dropbox.com", ipranges.EC2, 0.6821, 0.97, []string{"dl", "dl-web", "client", "www", "notify"}, 600 << 10},
	{"netflix.com", ipranges.EC2, 0.0170, 0.55, []string{"api", "www", "m"}, 90 << 10},
	{"truste.com", ipranges.EC2, 0.0106, 0.30, []string{"consent", "choices"}, 18 << 10},
	{"channel3000.com", ipranges.EC2, 0.0074, 0.05, []string{"www", "media"}, 60 << 10},
	{"pinterest.com", ipranges.EC2, 0.0059, 0.35, []string{"www", "api", "m"}, 25 << 10},
	{"adsafeprotected.com", ipranges.EC2, 0.0053, 0.20, []string{"pixel", "static"}, 6 << 10},
	{"zynga.com", ipranges.EC2, 0.0044, 0.25, []string{"api", "assets"}, 30 << 10},
	{"sharefile.com", ipranges.EC2, 0.0042, 0.90, []string{"www", "storage"}, 300 << 10},
	{"zoolz.com", ipranges.EC2, 0.0036, 0.95, []string{"backup", "api"}, 700 << 10},
	{"echoenabled.com", ipranges.EC2, 0.0031, 0.15, []string{"api", "cdn"}, 8 << 10},
	{"vimeo.com", ipranges.EC2, 0.0026, 0.20, []string{"player", "api"}, 120 << 10},
	{"foursquare.com", ipranges.EC2, 0.0025, 0.60, []string{"api", "www"}, 12 << 10},
	{"sourcefire.com", ipranges.EC2, 0.0022, 0.70, []string{"updates", "www"}, 200 << 10},
	{"instagram.com", ipranges.EC2, 0.0017, 0.50, []string{"api", "www"}, 20 << 10},
	{"copperegg.com", ipranges.EC2, 0.0017, 0.80, []string{"api", "app"}, 15 << 10},

	{"atdmt.com", ipranges.Azure, 0.0310, 0.10, []string{"view", "ad"}, 9 << 10},
	{"msn.com", ipranges.Azure, 0.0239, 0.15, []string{"www", "portal1", "ent1"}, 22 << 10},
	{"microsoft.com", ipranges.Azure, 0.0226, 0.35, []string{"download", "svc1", "update"}, 80 << 10},
	{"msecnd.net", ipranges.Azure, 0.0155, 0.05, []string{"az12345.vo", "ajax"}, 35 << 10},
	{"s-msn.com", ipranges.Azure, 0.0143, 0.05, []string{"static", "img"}, 28 << 10},
	{"live.com", ipranges.Azure, 0.0135, 0.70, []string{"login1", "mail1", "skydrive"}, 40 << 10},
	{"virtualearth.net", ipranges.Azure, 0.0106, 0.20, []string{"tiles", "dev"}, 50 << 10},
	{"dreamspark.com", ipranges.Azure, 0.0081, 0.60, []string{"www", "downloads"}, 150 << 10},
	{"hotmail.com", ipranges.Azure, 0.0072, 0.85, []string{"mail", "attach"}, 30 << 10},
	{"mesh.com", ipranges.Azure, 0.0052, 0.90, []string{"sync", "api"}, 120 << 10},
	{"wonderwall.com", ipranges.Azure, 0.0036, 0.10, []string{"www", "img"}, 25 << 10},
	{"msads.net", ipranges.Azure, 0.0029, 0.10, []string{"serve", "pixel"}, 7 << 10},
	{"aspnetcdn.com", ipranges.Azure, 0.0026, 0.05, []string{"ajax", "cdn"}, 15 << 10},
	{"windowsphone.com", ipranges.Azure, 0.0023, 0.40, []string{"www", "store"}, 45 << 10},
	{"windowsphone-int.com", ipranges.Azure, 0.0023, 0.40, []string{"int", "dev"}, 45 << 10},
}

// contentType describes one HTTP content-type row of Table 6.
type contentType struct {
	name string
	// byteShare is the fraction of HTTP body bytes (Table 6).
	byteShare float64
	// meanBytes and maxBytes bound the object-size distribution.
	meanBytes float64
	maxBytes  int64
}

var contentTypes = [...]contentType{
	{"text/html", 0.2410, 16 << 10, 3_700_000},
	{"text/plain", 0.2337, 5 << 10, 24_400_000},
	{"image/jpeg", 0.1064, 20 << 10, 18_700_000},
	{"application/x-shockwave-flash", 0.0866, 36 << 10, 22_900_000},
	{"application/octet-stream", 0.0785, 29 << 10, 2_000_000_000},
	{"application/pdf", 0.0315, 656 << 10, 25_700_000},
	{"text/xml", 0.0310, 5 << 10, 4_900_000},
	{"image/png", 0.0294, 6 << 10, 24_900_000},
	{"application/zip", 0.0281, 1664 << 10, 1_900_000_000},
	{"video/mp4", 0.0221, 6578 << 10, 143_000_000},
}

// contentCountWeights converts byte shares to per-flow draw weights
// (share divided by mean size → relative object counts).
func contentCountWeights() []float64 {
	out := make([]float64, len(contentTypes))
	for i, ct := range contentTypes {
		out[i] = ct.byteShare / ct.meanBytes
	}
	return out
}
