package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidate holds each flag rule to its refusal, one row per rule, and
// lets the coherent combinations through — among them every cluster flag
// and -split-watermark on a one-shard server, read-only or live, which
// serves through a cluster too.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" = valid
	}{
		{nil, ""},
		{[]string{"-shards", "1", "-replicas", "2", "-routing", "least-pending", "-shard-timeout", "5ms",
			"-hedge-delay", "1ms", "-retries", "2", "-breaker-threshold", "5", "-breaker-cooldown", "3ms",
			"-chaos-rate", "0.05", "-default-deadline", "5ms", "-shed-target", "1ms", "-retry-budget", "0.1",
			"-brownout-enter", "2ms"}, ""},
		{[]string{"-ingest", "-shards", "2", "-replicas", "2", "-chaos-rate", "0.05", "-split-watermark", "9"}, ""},
		{[]string{"-ingest", "-shards", "1", "-replicas", "2", "-routing", "least-pending", "-shard-timeout", "5ms",
			"-hedge-delay", "1ms", "-retries", "-1", "-breaker-threshold", "-1", "-breaker-cooldown", "1ms",
			"-chaos-rate", "0.05", "-default-deadline", "5ms", "-shed-target", "1ms", "-retry-budget", "0.1",
			"-brownout-enter", "1ms", "-split-watermark", "9"}, ""},
		{[]string{"-ingest", "-wal-dir", "w", "-checkpoint-every", "10"}, ""},
		{[]string{"-ingest", "-merge-threshold", "0", "-merge-auto=false"}, ""},

		{[]string{"-mode", "tpu"}, `unknown mode "tpu"`},
		{[]string{"-routing", "random"}, `unknown routing "random"`},
		{[]string{"-placement", "first"}, `unknown placement "first"`},
		{[]string{"-devices", "0"}, "-devices must be >= 1"},
		{[]string{"-batch-window", "-1us"}, "-batch-window must be >= 0"},
		{[]string{"-batch-max", "0"}, "-batch-max must be >= 1"},
		{[]string{"-shard-timeout", "-1ms"}, "-shard-timeout must be >= 0"},
		{[]string{"-hedge-delay", "-1ms"}, "-hedge-delay must be >= 0"},
		{[]string{"-retries", "-2"}, "-retries must be >= -1"},
		{[]string{"-default-deadline", "-1ms"}, "-default-deadline must be >= 0"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be >= 0"},
		{[]string{"-shed-target", "-1ms"}, "-shed-target must be >= 0"},
		{[]string{"-retry-budget", "1.5"}, "-retry-budget must be in [0, 1]"},
		{[]string{"-brownout-enter", "-1ms"}, "-brownout-enter must be >= 0"},
		{[]string{"-merge-threshold", "-1"}, "-merge-threshold must be >= 0"},
		{[]string{"-freshness-threshold", "-1"}, "-freshness-threshold must be >= 0"},
		{[]string{"-split-watermark", "-1"}, "-split-watermark must be >= 0"},
		{[]string{"-wal-sync", "0"}, "-wal-sync must be >= 1 or -1"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every must be >= 0"},

		{[]string{"-ingest", "-checkpoint-every", "10"}, "-checkpoint-every requires -wal-dir"},
		{[]string{"-freshness-threshold", "5"}, "require -ingest"},
		{[]string{"-wal-dir", "w"}, "-wal-dir requires -ingest"},
		{[]string{"-ingest", "-merge-threshold", "0"}, "-merge-auto needs -merge-threshold > 0"},
	} {
		fs := flag.NewFlagSet("griffin-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
