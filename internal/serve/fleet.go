package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// FleetGroup is one homogeneous slice of a heterogeneous fleet: Count
// pods of one device part at Cores cores each, with an hourly price
// per pod. A Config either sets Spec/Pods/CoresPerPod (the legacy
// homogeneous form, byte-identical to pre-fleet records) or a Fleet of
// groups — never both. Pods are numbered group by group in declaration
// order, so pod indices (dispatch, fault streams, PodStats) stay
// deterministic for a fixed FleetSpec.
type FleetGroup struct {
	Device string `json:"device"`          // part name from the cross registry
	Cores  int    `json:"cores,omitempty"` // cores/GPUs per pod (0 → 1)
	Count  int    `json:"count"`           // pods in the group

	// DollarPerHour is the hourly price of one pod in the group; 0
	// resolves to Cores × the part's nominal per-chip price (the echoed
	// Config carries the resolved value, so req/s/$ figures are
	// reproducible from the record alone).
	DollarPerHour float64 `json:"dollar_per_hour,omitempty"`
}

// defaultDollarPerChipHour is the nominal on-demand per-chip hourly
// price used when a FleetGroup does not set DollarPerHour — published
// US list-price ballparks, fixed here so cost figures are
// deterministic, not market-accurate.
var defaultDollarPerChipHour = map[string]float64{
	"TPUv4":     3.22,
	"TPUv5e":    1.20,
	"TPUv5p":    4.20,
	"TPUv6e":    2.70,
	"A100-40GB": 2.90,
	"A100-80GB": 3.90,
	"H100":      8.00,
}

// unknownDollarPerChipHour prices parts registered after this table
// was written, so cost-aware dispatch never divides by zero.
const unknownDollarPerChipHour = 3.0

// defaultGroupDollar resolves a group's hourly pod price from the
// per-chip table.
func defaultGroupDollar(device string, cores int) float64 {
	per, ok := defaultDollarPerChipHour[device]
	if !ok {
		per = unknownDollarPerChipHour
	}
	return per * float64(cores)
}

// resolvedFleet returns the fleet as explicit groups: the configured
// groups (already defaulted by withDefaults) or the implicit single
// homogeneous group. The implicit group is never echoed into the
// record — legacy Configs marshal byte-identically.
func (cfg Config) resolvedFleet() []FleetGroup {
	if len(cfg.Fleet) > 0 {
		return cfg.Fleet
	}
	return []FleetGroup{{
		Device:        cfg.Spec,
		Cores:         cfg.CoresPerPod,
		Count:         cfg.Pods,
		DollarPerHour: defaultGroupDollar(cfg.Spec, cfg.CoresPerPod),
	}}
}

// totalPods is the fleet size M across all groups.
func (cfg Config) totalPods() int {
	if len(cfg.Fleet) == 0 {
		return cfg.Pods
	}
	n := 0
	for _, g := range cfg.Fleet {
		n += g.Count
	}
	return n
}

// FleetDollarPerHour sums the fleet's hourly price (the denominator of
// the req/s/$ planning metric).
func FleetDollarPerHour(fleet []FleetGroup) float64 {
	var d float64
	for _, g := range fleet {
		cores := g.Cores
		if cores == 0 {
			cores = 1
		}
		price := g.DollarPerHour
		if price == 0 {
			price = defaultGroupDollar(g.Device, cores)
		}
		d += float64(g.Count) * price
	}
	return d
}

// ParseFleet parses the CLI fleet syntax: "+"-joined groups of
// device:cores:count[:dollar_per_hour], e.g.
// "TPUv6e:1:4+H100:1:2:9.5". Device names may contain dashes
// (A100-80GB), so ":" is the field separator.
func ParseFleet(s string) ([]FleetGroup, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("serve: empty fleet spec")
	}
	var fleet []FleetGroup
	for _, part := range strings.Split(s, "+") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("serve: fleet group %q: want device:cores:count[:dollar_per_hour]", part)
		}
		g := FleetGroup{Device: strings.TrimSpace(fields[0])}
		cores, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("serve: fleet group %q: bad cores: %w", part, err)
		}
		count, err := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err != nil {
			return nil, fmt.Errorf("serve: fleet group %q: bad count: %w", part, err)
		}
		g.Cores, g.Count = cores, count
		if len(fields) == 4 {
			d, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
			if err != nil {
				return nil, fmt.Errorf("serve: fleet group %q: bad dollar_per_hour: %w", part, err)
			}
			g.DollarPerHour = d
		}
		fleet = append(fleet, g)
	}
	return fleet, nil
}

// ParseFleets parses a comma-separated list of fleet specs (the
// "crossbench plan -fleets" candidate set): "TPUv6e:1:4,TPUv6e:1:2+H100:1:1".
func ParseFleets(s string) ([][]FleetGroup, error) {
	var fleets [][]FleetGroup
	for _, one := range strings.Split(s, ",") {
		f, err := ParseFleet(one)
		if err != nil {
			return nil, err
		}
		fleets = append(fleets, f)
	}
	return fleets, nil
}
