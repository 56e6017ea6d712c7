// migration_tour — a guided, executable walk through the paper's migration
// paths (§III, Tables I-VI). Each stop prints the OpenCL idiom and its SYCL
// replacement, runs both against the shared engine, and checks they agree.
//
//   $ ./examples/migration_tour
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/pipeline.hpp"
#include "genome/synth.hpp"
#include "oclsim/cl.hpp"
#include "oclsim/cl_objects.hpp"
#include "syclsim/sycl.hpp"
#include "util/log.hpp"

namespace {

#define CK(x) COF_CHECK((x) == CL_SUCCESS)

void stop(const char* title) { std::printf("\n=== %s ===\n", title); }

void code(const char* label, const char* snippet) {
  std::printf("%-7s | %s\n", label, snippet);
}

// --- Table I: the host-program skeleton ------------------------------------

void tour_programming_steps() {
  stop("Table I — programming steps");
  code("OpenCL", "platform -> device -> context -> queue -> buffers -> program");
  code("", "  -> build -> kernels -> args -> enqueue -> read -> events -> release");
  code("SYCL", "selector -> queue -> buffers -> lambda kernels -> submit");
  code("", "  -> accessors (implicit transfer) -> events -> RAII cleanup");
  std::printf("steps: %zu vs %zu\n", cof::opencl_programming_steps().size(),
              cof::sycl_programming_steps().size());

  // Execute both skeletons: construct a pipeline per model, then tear down.
  const long before = oclsim::census::live().load();
  {
    cof::pipeline_options opt;
    auto ocl = cof::make_opencl_pipeline(opt);   // 13 explicit steps inside
    auto sycl_p = cof::make_sycl_pipeline(opt);  // 8 implicit ones
    std::printf("live OpenCL API objects while running: %ld; ",
                oclsim::census::live().load() - before);
  }
  std::printf("after destruction: %ld (manual releases balanced)\n",
              oclsim::census::live().load() - before);
}

// --- Table II: memory management --------------------------------------------

void tour_memory_management(cl_context ctx, cl_command_queue q) {
  stop("Table II — memory management");
  code("OpenCL", "d = clCreateBuffer(ctx, flags, BS, h, err); ... clReleaseMemObject(d);");
  code("SYCL", "buffer<T, 1> d(h, WS);  // runtime releases and writes back");

  std::vector<float> host(64);
  std::iota(host.begin(), host.end(), 0.0f);

  cl_int err;
  cl_mem d = clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                            host.size() * sizeof(float), host.data(), &err);
  CK(err);
  std::vector<float> ocl_back(host.size());
  CK(clEnqueueReadBuffer(q, d, CL_TRUE, 0, host.size() * sizeof(float),
                         ocl_back.data(), 0, nullptr, nullptr));
  CK(clReleaseMemObject(d));  // explicit release

  std::vector<float> sycl_back(host.size());
  {
    sycl::queue sq{sycl::gpu_selector{}};
    sycl::buffer<float, 1> buf(host.data(), sycl::range<1>(host.size()));
    sq.submit([&](sycl::handler& cgh) {
      auto acc = buf.get_access<sycl::sycl_read>(cgh);
      cgh.copy(acc, sycl_back.data());
    });
  }  // <- buffer destructor: wait, write back, free
  COF_CHECK(ocl_back == host && sycl_back == host);
  std::printf("both paths round-tripped %zu floats\n", host.size());
}

// --- Table III: data movement -----------------------------------------------

void tour_data_movement(cl_context ctx, cl_command_queue q) {
  stop("Table III — data movement with offsets");
  code("OpenCL", "clEnqueueWriteBuffer(q, dst, blocking, offset, cb, src, 0,0,0);");
  code("SYCL", "auto d = dst.get_access<sycl_write>(cgh, range, offset);");
  code("", "cgh.copy(src, d); ... .wait();");

  const size_t off = 100, cb = 40;
  std::vector<char> payload(cb);
  std::iota(payload.begin(), payload.end(), 1);

  cl_int err;
  cl_mem d = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 256, nullptr, &err);
  CK(err);
  CK(clEnqueueWriteBuffer(q, d, CL_TRUE, off, cb, payload.data(), 0, nullptr,
                          nullptr));
  std::vector<char> ocl_out(cb);
  CK(clEnqueueReadBuffer(q, d, CL_TRUE, off, cb, ocl_out.data(), 0, nullptr, nullptr));
  CK(clReleaseMemObject(d));

  std::vector<char> sycl_out(cb);
  {
    sycl::queue sq{sycl::gpu_selector{}};
    sycl::buffer<char, 1> buf{sycl::range<1>(256)};
    sq.submit([&](sycl::handler& cgh) {
        auto acc = buf.get_access<sycl::sycl_write>(cgh, sycl::range<1>(cb),
                                                    sycl::id<1>(off));
        cgh.copy(payload.data(), acc);
      }).wait();
    sq.submit([&](sycl::handler& cgh) {
        auto acc = buf.get_access<sycl::sycl_read>(cgh, sycl::range<1>(cb),
                                                   sycl::id<1>(off));
        cgh.copy(acc, sycl_out.data());
      }).wait();
  }
  COF_CHECK(ocl_out == payload && sycl_out == payload);
  std::printf("offset %zu transfers agree\n", off);
}

// --- Tables IV-VI: indexing, atomics, kernel execution ----------------------

void tour_kernel_side() {
  stop("Tables IV-V — coordinate indexing, barrier, atomic increment");
  code("OpenCL", "get_global_id(0); get_group_id(0); get_local_size(0);");
  code("", "barrier(CLK_LOCAL_MEM_FENCE); old = atomic_inc(var);");
  code("SYCL", "item.get_global_id(0); item.get_group(0); item.get_local_range(0);");
  code("", "item.barrier(fence_space::local_space);");
  code("", "atomic_ref<T, relaxed, device, global_space>(val).fetch_add(1);");

  // Run the SYCL side (the OpenCL twin is exercised by the real pipelines
  // and bench/table2to6_migration).
  const size_t N = 1024, WG = 128;
  util::u32 appended = 0;
  std::vector<util::u32> order(N, 0);
  {
    sycl::queue q{sycl::gpu_selector{}};
    sycl::buffer<util::u32, 1> cnt(&appended, sycl::range<1>(1));
    sycl::buffer<util::u32, 1> ord(order.data(), sycl::range<1>(N));
    q.submit([&](sycl::handler& cgh) {
      auto c = cnt.get_access<sycl::sycl_read_write>(cgh);
      auto o = ord.get_access<sycl::sycl_write>(cgh);
      sycl::local_accessor<util::u32, 1> tile(sycl::range<1>(WG), cgh);
      cgh.parallel_for(
          sycl::nd_range<1>(sycl::range<1>(N), sycl::range<1>(WG)),
          [=](sycl::nd_item<1> it) {
            tile[it.get_local_id(0)] = static_cast<util::u32>(it.get_global_id(0));
            it.barrier(sycl::access::fence_space::local_space);
            sycl::atomic_ref<util::u32, sycl::memory_order::relaxed,
                             sycl::memory_scope::device,
                             sycl::access::address_space::global_space>
                counter(c[0]);
            const util::u32 slot = counter.fetch_add(1u);
            o[slot] = tile[it.get_local_id(0)];
          });
    });
  }
  COF_CHECK(appended == N);
  // atomic append wrote a permutation of the ids
  std::vector<util::u32> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (util::u32 i = 0; i < N; ++i) COF_CHECK(sorted[i] == i);
  std::printf("atomic append produced a permutation of %zu ids\n", N);

  stop("Table VI — executing the finder kernel");
  code("OpenCL", "clSetKernelArg(k, 0, ...); ... clEnqueueNDRangeKernel(q, k, 1, ...);");
  code("SYCL", "h.parallel_for(nd_range<1>(gws, lws), [=](nd_item<1> it) {");
  code("", "  finder(it, ...); });  // plain function called from the lambda");

  auto g = genome::generate(genome::hg19_like(32768, 5));
  const auto pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  cof::pipeline_options popt;
  popt.variant = cof::comparer_variant::base;  // the paper's per-position finder
  auto ocl = cof::make_opencl_pipeline(popt);
  auto syc = cof::make_sycl_pipeline(popt);
  const auto& seq = g.chroms[0].seq;
  ocl->load_chunk({seq.data(), seq.size()});
  syc->load_chunk({seq.data(), seq.size()});
  const auto n_ocl = ocl->run_finder(pat);
  const auto n_syc = syc->run_finder(pat);
  COF_CHECK(n_ocl == n_syc);
  std::printf("finder agrees through both host programs: %u PAM loci in %s\n", n_ocl,
              g.chroms[0].name.c_str());
}

}  // namespace

int main() {
  util::set_log_level(util::log_level::warn);
  std::printf("A tour of the OpenCL -> SYCL migration paths (paper §III).\n");

  cl_platform_id plat;
  cl_device_id dev;
  cl_uint n;
  CK(clGetPlatformIDs(1, &plat, &n));
  CK(clGetDeviceIDs(plat, CL_DEVICE_TYPE_GPU, 1, &dev, &n));
  cl_int err;
  cl_context ctx = clCreateContext(nullptr, 1, &dev, nullptr, nullptr, &err);
  CK(err);
  cl_command_queue q = clCreateCommandQueue(ctx, dev, CL_QUEUE_PROFILING_ENABLE, &err);
  CK(err);

  tour_programming_steps();
  tour_memory_management(ctx, q);
  tour_data_movement(ctx, q);
  tour_kernel_side();

  CK(clReleaseCommandQueue(q));
  CK(clReleaseContext(ctx));
  std::printf("\nAll migration stops verified.\n");
  return 0;
}
