// Package workload synthesizes the paper's evaluation workloads: a catalog
// of thirty commonly-deployed VNFs in nine categories (following the Li &
// Chen survey the paper traces), VNF chains of up to six functions, requests
// with Poisson arrival rates of 1–100 packets/s, and packet-level arrival
// traces for the discrete-event simulator.
//
// This package is the documented substitution for the paper's private
// datacenter traces: the model consumes traces only through per-request mean
// rates and Poisson/exponential assumptions, so generating workloads with
// the same parameter ranges reproduces the algorithms' operating regime
// (see DESIGN.md §5).
package workload

// CatalogEntry describes one VNF type from the survey-derived catalog with
// its relative resource demand (units per service instance, where one unit
// processes 64-byte packets at 10 kpps) and nominal per-instance service
// rate in packets per second.
type CatalogEntry struct {
	Name        string
	Category    string
	Demand      float64 // resource units per instance
	ServiceRate float64 // packets/s per instance at nominal sizing
}

// Categories of the Li & Chen survey the paper cites (nine classes).
const (
	CategoryShaping     = "traffic-shaping"
	CategorySecurity    = "security"
	CategoryTranslation = "address-translation"
	CategoryMonitoring  = "monitoring"
	CategoryGateway     = "gateway"
	CategoryProxy       = "proxy-caching"
	CategoryOptimizer   = "optimization"
	CategorySignaling   = "signaling"
	CategoryAccess      = "access"
)

// catalog lists thirty commonly-used VNFs. The first six entries are the
// paper's explicitly named functions (NAT, FW, IDS, LB, WAN Optimizer, Flow
// Monitor). Demands are in capacity units; heavier packet processing (DPI,
// transcoding) costs more units and serves at a lower rate.
var catalog = []CatalogEntry{
	{Name: "NAT", Category: CategoryTranslation, Demand: 30, ServiceRate: 3000},
	{Name: "Firewall", Category: CategorySecurity, Demand: 40, ServiceRate: 2500},
	{Name: "IDS", Category: CategorySecurity, Demand: 120, ServiceRate: 1000},
	{Name: "LoadBalancer", Category: CategoryShaping, Demand: 25, ServiceRate: 3500},
	{Name: "WANOptimizer", Category: CategoryOptimizer, Demand: 90, ServiceRate: 1200},
	{Name: "FlowMonitor", Category: CategoryMonitoring, Demand: 20, ServiceRate: 4000},

	{Name: "IPS", Category: CategorySecurity, Demand: 130, ServiceRate: 900},
	{Name: "DPI", Category: CategorySecurity, Demand: 150, ServiceRate: 800},
	{Name: "AntivirusGateway", Category: CategorySecurity, Demand: 110, ServiceRate: 950},
	{Name: "DDoSProtection", Category: CategorySecurity, Demand: 100, ServiceRate: 1100},
	{Name: "TrafficShaper", Category: CategoryShaping, Demand: 35, ServiceRate: 2800},
	{Name: "RateLimiter", Category: CategoryShaping, Demand: 15, ServiceRate: 4500},
	{Name: "NAT64", Category: CategoryTranslation, Demand: 35, ServiceRate: 2700},
	{Name: "CarrierGradeNAT", Category: CategoryTranslation, Demand: 60, ServiceRate: 2000},
	{Name: "NetworkAnalyzer", Category: CategoryMonitoring, Demand: 70, ServiceRate: 1500},
	{Name: "QoEMonitor", Category: CategoryMonitoring, Demand: 45, ServiceRate: 2200},
	{Name: "PacketSampler", Category: CategoryMonitoring, Demand: 10, ServiceRate: 5000},
	{Name: "VPNGateway", Category: CategoryGateway, Demand: 80, ServiceRate: 1300},
	{Name: "IPsecGateway", Category: CategoryGateway, Demand: 95, ServiceRate: 1150},
	{Name: "ServingGateway", Category: CategoryGateway, Demand: 85, ServiceRate: 1250},
	{Name: "PDNGateway", Category: CategoryGateway, Demand: 90, ServiceRate: 1200},
	{Name: "WebProxy", Category: CategoryProxy, Demand: 50, ServiceRate: 1800},
	{Name: "HTTPCache", Category: CategoryProxy, Demand: 55, ServiceRate: 1700},
	{Name: "CDNNode", Category: CategoryProxy, Demand: 75, ServiceRate: 1400},
	{Name: "TCPOptimizer", Category: CategoryOptimizer, Demand: 40, ServiceRate: 2400},
	{Name: "VideoTranscoder", Category: CategoryOptimizer, Demand: 160, ServiceRate: 700},
	{Name: "CompressionEngine", Category: CategoryOptimizer, Demand: 105, ServiceRate: 1000},
	{Name: "IMSCore", Category: CategorySignaling, Demand: 65, ServiceRate: 1600},
	{Name: "SessionBorderCtrl", Category: CategorySignaling, Demand: 70, ServiceRate: 1500},
	{Name: "BRAS", Category: CategoryAccess, Demand: 85, ServiceRate: 1250},
}

// Catalog returns a copy of the thirty-entry VNF catalog.
func Catalog() []CatalogEntry {
	return append([]CatalogEntry(nil), catalog...)
}

// CatalogSize is the number of catalog entries (the paper scales the number
// of VNFs from 6 up to this value).
const CatalogSize = 30
