#include "core/engine.hpp"

#include "core/engine_stream.hpp"
#include "obs/metrics.hpp"

namespace cof {

const char* backend_name(backend_kind k) {
  switch (k) {
    case backend_kind::serial: return "serial";
    case backend_kind::opencl: return "opencl";
    case backend_kind::sycl: return "sycl";
    case backend_kind::sycl_usm: return "sycl-usm";
    case backend_kind::sycl_twobit: return "sycl-2bit";
  }
  return "?";
}

search_outcome run_search(const search_config& cfg, const genome::genome_t& g,
                          const engine_options& opt) {
  streamed_outcome s = detail::run_engine(cfg, &g, {}, opt, {});
  return {std::move(s.records), std::move(s.metrics)};
}

std::unique_ptr<device_pipeline> make_pipeline(const engine_options& opt,
                                               usize max_entries) {
  pipeline_options popt;
  popt.variant = opt.variant;
  popt.wg_size = opt.wg_size;
  popt.counting = opt.counting;
  popt.profiler = opt.profiler;
  popt.max_entries = max_entries;
  switch (opt.backend) {
    case backend_kind::opencl: return make_opencl_pipeline(popt);
    case backend_kind::sycl_usm: return make_sycl_usm_pipeline(popt);
    case backend_kind::sycl_twobit: return make_sycl_twobit_pipeline(popt);
    default: return make_sycl_pipeline(popt);
  }
}

void append_records(const device_pipeline::entries& e, std::string_view text, u32 chrom,
                    u64 start, const std::vector<device_pattern>& queries,
                    std::vector<ot_record>& out) {
  for (usize i = 0; i < e.size(); ++i) {
    const device_pattern& q = queries[e.qidx[i]];
    out.push_back(ot_record{e.qidx[i], chrom, start + e.loci[i], e.dir[i], e.mm[i],
                            make_site_string(q.seq, text.substr(e.loci[i], q.plen),
                                             e.dir[i])});
  }
}

run_scope::run_scope(const engine_options& opt)
    : opt_(opt),
      obs_(!opt.trace_out.empty() || !opt.metrics_json.empty()),
      faults_(opt.faults) {}

void run_scope::finish() const {
  if (!obs::enabled()) return;
  if (opt_.profiler != nullptr) obs::fold_profiler(*opt_.profiler);
  if (!opt_.trace_out.empty()) obs::write_trace(opt_.trace_out);
  if (!opt_.metrics_json.empty()) {
    obs::metrics_registry::global().write_json(opt_.metrics_json);
  }
}

}  // namespace cof
