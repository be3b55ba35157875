package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
)

// perLayer assembles the per-layer metrics: counts and histogram means from
// the /metrics deltas of the untraced fixed-rate phase (and the boot
// scrape), times marked traced from the in-process replay. Every metric is
// reported on every workload; a layer the workload does not exercise
// reports 0.
func (r *runner) perLayer(rp *replica, overheadPct float64) map[string]metric {
	d, boot := r.res.PhaseMetrics, r.res.BootMetrics
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	histMean := func(f flat, key string, scale float64) float64 {
		return scale * ratio(f[histKey(key, "_sum")], f[histKey(key, "_count")])
	}
	hitRatio := func(prefix string) float64 {
		h := d[prefix+"_hits"]
		return ratio(h, h+d[prefix+"_misses"])
	}
	stage := func(name string) string { return "stage_seconds{stage=" + name + "}" }
	route := func(path string) string { return "vqiserve_request_seconds{route=" + path + "}" }

	// vqiserve
	for k := kindSpec; k < numKinds; k++ {
		put("vqiserve.server_ms."+k.String(), histMean(d, route(kindRoutes[k]), 1e3), "ms")
	}
	var waits []float64
	for _, s := range r.res.fixed {
		if s.due >= warmup && !s.out.Unsent {
			waits = append(waits, ms(s.out.Sent-s.due))
		}
	}
	put("vqiserve.wait_ms", mean(waits), "ms")
	queries := d["vqiserve_requests_total{route=/api/query}"]
	executed := d["vqiserve_cache_misses"]
	updates := d["vqiserve_admin_updates_total"]
	var apiRequests float64
	for k := kindQuery; k < numKinds; k++ {
		apiRequests += d["vqiserve_requests_total{route="+kindRoutes[k]+"}"]
	}

	// traced span summaries
	spanMean := func(name string) float64 {
		var total float64
		var n int
		for _, row := range r.res.SelfTimes {
			if row.Name == name {
				total, n = row.Total, row.Calls
			}
		}
		return ratio(total, float64(n))
	}
	// Every child of a traced handler root is a layer below vqiserve (the
	// replay has no spans of its own for decode and encode), so the part of
	// a query root its children cover is the traced time below vqiserve.
	var covered, roots float64
	for _, row := range r.res.SelfTimes {
		if row.Name == "vqiserve.query" {
			covered, roots = row.Total-row.Self, float64(row.Calls)
		}
	}
	serverQuery := m["vqiserve.server_ms.query"].Value
	unattributed := serverQuery - ratio(covered, roots)
	put("vqiserve.unattributed_ms", unattributed, "ms")
	put("vqiserve.unattributed_share_of_query_p50", ratio(unattributed, r.res.Routes[kindQuery.String()].P50), "ratio")

	// canon
	var canonCalls float64
	for _, row := range r.res.SelfTimes {
		if row.Name == "canon" {
			canonCalls = float64(row.Calls)
		}
	}
	put("canon.calls_per_request", ratio(canonCalls, roots), "count")
	put("canon.us", 1e3*spanMean("canon"), "us")

	// qcache
	put("qcache.response.hit_ratio", hitRatio("vqiserve_cache"), "ratio")
	put("qcache.shard.hit_ratio", hitRatio("vqiserve_shardcache"), "ratio")
	put("qcache.plan.hit_ratio", hitRatio("vqiserve_plancache"), "ratio")
	put("qcache.view.hit_ratio", hitRatio("vqiserve_viewcache"), "ratio")
	put("qcache.similar.hit_ratio", rp.simQC.Metrics().HitRatio, "ratio")
	put("qcache.response.evictions", d["vqiserve_cache_evictions"], "count")
	put("qcache.dedups", d["vqiserve_cache_dedups"]+d["vqiserve_shardcache_dedups"]+d["vqiserve_plancache_dedups"]+d["vqiserve_viewcache_dedups"], "count")

	// plan
	put("plan.compile_us", histMean(d, stage("plan.compile"), 1e6), "us")
	put("plan.decomposed_share", ratio(d["gindex_plan_searches_total{strategy=decomposed}"], executed), "ratio")
	put("plan.fragment_probe_ms", histMean(d, stage("plan.fragment-probe"), 1e3), "ms")
	put("plan.join_ms", histMean(d, stage("plan.join"), 1e3), "ms")
	put("plan.verify_ms", histMean(d, stage("plan.verify"), 1e3), "ms")
	put("plan.fallbacks", d["gindex_plan_shard_fallbacks_total"]+d["gindex_plan_graph_fallbacks_total"], "count")
	stitched := d["gindex_plan_stitched_verifies_total"]
	put("plan.stitch_yield", ratio(stitched, stitched+d["gindex_plan_graph_fallbacks_total"]), "ratio")
	put("plan.est_q_error", math.Exp(ratio(rp.qErrLogSum, float64(rp.qErrN))), "ratio")

	// gindex
	cands := d["gindex_filter_candidates_total"]
	put("gindex.candidates_per_query", ratio(cands, executed), "count")
	put("gindex.verified_per_query", ratio(d["gindex_verify_total"], executed), "count")
	put("gindex.filter_precision", ratio(d["gindex_matches_total"], cands), "ratio")
	put("gindex.budget_stops", d["gindex_budget_stops_total"], "count")
	put("gindex.search_ms", ratio(rp.searchMsSum, float64(rp.searchN)), "ms")
	put("gindex.shard_skew", ratio(rp.skewSum, float64(rp.skewN)), "ratio")
	put("gindex.merge_us", 1e3*spanMean("gindex.merge"), "us")
	put("gindex.apply_ms", spanMean("gindex.apply"), "ms")
	put("gindex.shards_rebuilt_per_batch", ratio(d["vqiserve_admin_shards_rebuilt_total"], updates), "count")
	put("gindex.build_s", boot[histKey("gindex_shard_build_seconds", "_sum")], "s")
	put("gindex.sections_s", boot[histKey("gindex_section_restore_seconds", "_sum")], "s")
	put("gindex.sections_restored", boot["gindex_section_restores_total"], "count")
	put("gindex.sections_rebuilt", boot["gindex_section_rebuilds_total"], "count")

	// isomorph
	searches := d["isomorph_searches_total"]
	put("isomorph.searches_per_request", ratio(searches, apiRequests), "count")
	put("isomorph.steps_per_query", ratio(d["isomorph_steps_total"], queries), "count")
	put("isomorph.truncated.steps", d["isomorph_truncated_total{reason=steps}"], "count")
	put("isomorph.truncated.canceled", d["isomorph_truncated_total{reason=canceled}"], "count")
	put("isomorph.embed_yield", ratio(d["isomorph_embeddings_total"], searches), "ratio")

	// results
	put("results.facets_ms", spanMean("results.facets"), "ms")
	put("results.facet_checks_per_query", ratio(float64(rp.facetChecks), float64(rp.facetCalls)), "count")
	put("results.facet_yield", ratio(float64(rp.facetHits), float64(rp.facetChecks)), "ratio")

	// vqi
	put("vqi.suggest_us", 1e3*spanMean("vqi.suggest"), "us")
	put("vqi.suggest_checks", ratio(float64(rp.suggestChecks), float64(rp.suggests)), "count")
	put("vqi.suggest_yield", ratio(float64(rp.suggestHits), float64(rp.suggestChecks)), "ratio")

	// ann
	put("ann.embed_us", histMean(d, stage("similar_embed"), 1e6), "us")
	put("ann.shortlist_us", histMean(d, stage("similar_shortlist"), 1e6), "us")
	put("ann.verify_us", histMean(d, stage("similar_verify"), 1e6), "us")
	put("ann.probes", histMean(d, "gindex_similar_probes", 1), "count")
	put("ann.shortlist", histMean(d, "gindex_similar_shortlist", 1), "count")
	put("ann.shard_rebuilds", d["gindex_ann_shard_rebuilds_total"], "count")

	// store
	put("store.wal.fsync_ms", histMean(d, "store_wal_fsync_seconds", 1e3), "ms")
	put("store.wal.bytes_per_update", ratio(d["store_wal_append_bytes_total"], updates), "bytes")
	put("store.wal.fsyncs_per_update", ratio(d["store_wal_fsyncs_total"], updates), "count")
	put("store.map_s", boot[histKey(stage("store.recover.map"), "_sum")], "s")
	put("store.replay_scan_s", boot[histKey(stage("store.recover.replay"), "_sum")], "s")
	put("store.replayed_batches", boot["store_wal_replayed_records_total"], "count")
	put("store.snapshot_bytes", float64(r.res.SnapshotBytes), "bytes")

	// catapult
	for _, st := range []string{"cluster", "csg", "walk", "select"} {
		put("catapult."+st+"_s", r.res.BuildStages["catapult."+st], "s")
	}

	put("trace.overhead_pct", overheadPct, "%")
	return m
}

// histKey turns "name{labels}" plus a suffix into the flat key of a
// histogram's _sum or _count series.
func histKey(key, suffix string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + suffix + key[i:]
	}
	return key + suffix
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
