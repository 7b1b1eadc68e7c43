package workload

import "nfvchain/internal/model"

// ChainTemplate is a named service-function chain drawn from the deployment
// patterns the paper's introduction motivates (e.g. "some flows need to
// traverse a firewall and a load balancer, other flows only the firewall").
type ChainTemplate struct {
	Name  string
	VNFs  []model.VNFID
	Usage string // what traffic class the chain serves
}

// chainTemplates lists canonical enterprise/datacenter SFCs composed from
// the catalog's first entries.
var chainTemplates = []ChainTemplate{
	{
		Name:  "web-ingress",
		VNFs:  []model.VNFID{"Firewall", "LoadBalancer"},
		Usage: "north-south web traffic entering the datacenter",
	},
	{
		Name:  "secure-web",
		VNFs:  []model.VNFID{"Firewall", "IDS", "LoadBalancer"},
		Usage: "web traffic with intrusion detection",
	},
	{
		Name:  "firewall-only",
		VNFs:  []model.VNFID{"Firewall"},
		Usage: "east-west flows needing only perimeter filtering",
	},
	{
		Name:  "branch-office",
		VNFs:  []model.VNFID{"NAT", "Firewall", "WANOptimizer"},
		Usage: "WAN traffic from branch offices",
	},
	{
		Name:  "monitored-nat",
		VNFs:  []model.VNFID{"NAT", "FlowMonitor"},
		Usage: "outbound flows with usage accounting",
	},
	{
		Name:  "full-inspection",
		VNFs:  []model.VNFID{"NAT", "Firewall", "IDS", "LoadBalancer", "WANOptimizer", "FlowMonitor"},
		Usage: "maximum-length chain exercising all six core VNFs",
	},
}

// ChainTemplates returns the named SFC templates.
func ChainTemplates() []ChainTemplate {
	out := make([]ChainTemplate, len(chainTemplates))
	copy(out, chainTemplates)
	return out
}
