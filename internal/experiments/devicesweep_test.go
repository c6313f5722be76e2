package experiments

import (
	"testing"
)

func TestDeviceSweepScalingShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := RunDeviceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(res.Points))
	}
	if res.Rate <= 0 {
		t.Fatalf("no calibrated rate: %v", res.Rate)
	}
	first := res.Points[0]
	if first.PeerCopies != 0 {
		t.Fatalf("1 device reports %d peer copies (no sibling exists)\n%s",
			first.PeerCopies, table.Render())
	}
	for i, p := range res.Points {
		if p.P99 < p.Mean {
			t.Fatalf("%d devices: P99 %v below mean %v\n%s", p.Devices, p.P99, p.Mean, table.Render())
		}
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Fatalf("%d devices: utilization %v out of range\n%s", p.Devices, p.Utilization, table.Render())
		}
		// Isolated latency stays flat: a single query runs on one device
		// no matter how many the node has. Allow 10% wiggle for placement
		// shifting which device's cache warms first.
		if p.IsolatedMean > first.IsolatedMean*11/10 || p.IsolatedMean < first.IsolatedMean*9/10 {
			t.Fatalf("isolated mean not flat across devices: 1 -> %v, %d -> %v\n%s",
				first.IsolatedMean, p.Devices, p.IsolatedMean, table.Render())
		}
		if i == 0 {
			continue
		}
		prev := res.Points[i-1]
		// Throughput grows monotonically with the device count under
		// saturating load — each device is an independent timeline.
		if p.Throughput <= prev.Throughput {
			t.Fatalf("throughput not monotone in devices: %d -> %.1f q/s, %d -> %.1f q/s\n%s",
				prev.Devices, prev.Throughput, p.Devices, p.Throughput, table.Render())
		}
	}
	four := res.Points[2]
	if four.Devices != 4 {
		t.Fatalf("third point is %d devices, want 4", four.Devices)
	}
	// The headline scaling claim: 4 devices drain at least 1.7x the
	// single-device rate (independent timelines; placement spreads load).
	if four.Throughput < 1.7*first.Throughput {
		t.Fatalf("4 devices only %.2fx the 1-device throughput\n%s",
			four.Throughput/first.Throughput, table.Render())
	}
	// Multi-GPU runs exercise the peer interconnect: some cache misses
	// must be served device-to-device.
	var peers int64
	for _, p := range res.Points[1:] {
		peers += p.PeerCopies
	}
	if peers == 0 {
		t.Fatalf("no peer copies at any multi-device point\n%s", table.Render())
	}
}
