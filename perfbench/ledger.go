package main

// ledgerModules are the modules whose CPU the traced run reports per
// operation, as "<module>.cpu_ns_per_op". Samples in any other bucket
// (a command's main package, "other") count in no ledger line.
var ledgerModules = []string{
	"transport", "syscall", "pbx", "media", "rtp", "sip", "directory",
	"netsim", "core", "telemetry", "monitor", "runtime", "runtime_gc",
}

// metricDef names a metric of the result and its unit.
type metricDef struct {
	name, unit string
}

// layerMetrics is every per-layer metric a traced run prints, in
// order. Each workload fills those its layers produce and reports 0
// for the rest (a sim run has no generator; a relay run no REGISTERs).
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, m := range ledgerModules {
		out = append(out, metricDef{m + ".cpu_ns_per_op", "ns"})
	}
	return append(out,
		metricDef{"kernel.sys_share", "ratio"},
		metricDef{"kernel.ctxsw_per_op", "count"},
		metricDef{"kernel.peak_rss_mb", "MB"},
		metricDef{"transport.rx_pkts_per_batch", "count"},
		metricDef{"transport.tx_pkts_per_batch", "count"},
		metricDef{"pbx.relay_drop_ratio", "ratio"},
		metricDef{"sip.msgs_per_op", "count"},
		metricDef{"sip.retransmissions_per_kop", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"directory.nonce_hit_ratio", "ratio"},
		metricDef{"sim.allocs_per_event", "count"},
		metricDef{"media.mos_mean", "MOS"},
		metricDef{"latency.p50_ms", "ms"},
		metricDef{"latency.p90_ms", "ms"},
		metricDef{"latency.p99_ms", "ms"},
		metricDef{"gen.lag_p99_us", "us"},
		metricDef{"host.steal_share", "ratio"},
		metricDef{"gen.cpu_per_sut_cpu", "ratio"},
		metricDef{"span.invite_to_180_ms", "ms"},
		metricDef{"span.ringing_to_200_ms", "ms"},
		metricDef{"span.register_challenge_ms", "ms"},
		metricDef{"span.register_auth_to_200_ms", "ms"},
		metricDef{"trace.overhead_share", "ratio"},
	)
}()

// cpuLedger fills "<module>.cpu_ns_per_op" from profile samples.
func cpuLedger(layers map[string]float64, samples []cpuSample, ops float64) {
	by := cpuByModule(samples)
	for _, m := range ledgerModules {
		layers[m+".cpu_ns_per_op"] = ratio(by[m], ops)
	}
}

// wireLedger fills the per-layer metrics every wire workload shares
// from the traced window w, over ops operations.
func wireLedger(layers map[string]float64, w window, ops float64) {
	cpuLedger(layers, w.profile, ops)
	split := w.sutSplit()
	layers["kernel.sys_share"] = ratio(float64(split.Sys), float64(split.Total()))
	layers["kernel.ctxsw_per_op"] = ratio(float64(w.b.ctxsw-w.a.ctxsw), ops)
	d := w.prom()
	// pbxd exports transport counters for its SIP socket only; relay
	// legs have none.
	layers["transport.rx_pkts_per_batch"] = ratio(d.Delta("udp_rx_packets_total", "transport", "sip"), d.Delta("udp_rx_batches_total", "transport", "sip"))
	txPkts, txBatches := d.Delta("udp_tx_packets_total", "transport", "sip"), d.Delta("udp_tx_batches_total", "transport", "sip")
	if txBatches == 0 && txPkts > 0 {
		// SIP responses leave by plain Send, one write per datagram;
		// only queued sends count as batches.
		txBatches = txPkts
	}
	layers["transport.tx_pkts_per_batch"] = ratio(txPkts, txBatches)
	relayed, dropped := d.Delta("rtp_relay_packets_total"), d.Delta("rtp_relay_dropped_total")
	layers["pbx.relay_drop_ratio"] = ratio(dropped, relayed+dropped)
	layers["sip.msgs_per_op"] = ratio(d.Delta("sip_messages_total"), ops)
	layers["sip.retransmissions_per_kop"] = ratio(1000*d.Delta("sip_retransmissions_total"), ops)
	layers["runtime.alloc_bytes_per_op"] = ratio(float64(w.b.mem["TotalAlloc"]-w.a.mem["TotalAlloc"]), ops)
	layers["directory.nonce_hit_ratio"] = ratio(d.Delta("pbx_nonce_cache_total", "result", "hit"), d.Delta("pbx_nonce_cache_total"))
	layers["gen.cpu_per_sut_cpu"] = ratio(float64(w.genCPU().Total()), float64(w.sutCPU()))
}

// opsPerCPUSecond is ops over pbxd's CPU time in w.
func opsPerCPUSecond(w window, ops float64) float64 {
	return ratio(ops, w.sutCPU().Seconds())
}

// overheadShare is the fraction of ops-per-CPU-second lost between
// the untraced and the traced window of a traced run.
func overheadShare(untraced, traced float64) float64 {
	return ratio(untraced-traced, untraced)
}
