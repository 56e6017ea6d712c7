// Tables II-VI — the migration pairs, executed. Each table's OpenCL idiom
// and its SYCL replacement run against the shared engine and must produce
// identical results; the harness prints the pair and the verified outcome.
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "oclsim/cl.hpp"
#include "oclsim/cl_objects.hpp"
#include "syclsim/sycl.hpp"

namespace {

#define CK(x) COF_CHECK((x) == CL_SUCCESS)

struct cl_env {
  cl_platform_id plat{};
  cl_device_id dev{};
  cl_context ctx{};
  cl_command_queue q{};
  cl_env() {
    cl_uint n;
    CK(clGetPlatformIDs(1, &plat, &n));
    CK(clGetDeviceIDs(plat, CL_DEVICE_TYPE_GPU, 1, &dev, &n));
    cl_int err;
    ctx = clCreateContext(nullptr, 1, &dev, nullptr, nullptr, &err);
    CK(err);
    q = clCreateCommandQueue(ctx, dev, CL_QUEUE_PROFILING_ENABLE, &err);
    CK(err);
  }
  ~cl_env() {
    CK(clReleaseCommandQueue(q));
    CK(clReleaseContext(ctx));
  }
};

void table2_memory_management(cl_env& env) {
  std::printf("\nTable II — memory management\n");
  std::printf("  OpenCL: d = clCreateBuffer(ctx, flags, BS, h, err); "
              "clReleaseMemObject(d)\n");
  std::printf("  SYCL  : buffer<T, 1> d(h, WS);   // released by the runtime\n");
  std::vector<int> host(256);
  std::iota(host.begin(), host.end(), 1);
  // OpenCL
  cl_int err;
  cl_mem d = clCreateBuffer(env.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                            host.size() * sizeof(int), host.data(), &err);
  CK(err);
  std::vector<int> back_ocl(host.size());
  CK(clEnqueueReadBuffer(env.q, d, CL_TRUE, 0, host.size() * sizeof(int),
                         back_ocl.data(), 0, nullptr, nullptr));
  CK(clReleaseMemObject(d));
  // SYCL
  std::vector<int> back_sycl(host.size());
  {
    sycl::queue q{sycl::gpu_selector{}};
    sycl::buffer<int, 1> buf(host.data(), sycl::range<1>(host.size()));
    q.submit([&](sycl::handler& cgh) {
      auto acc = buf.get_access<sycl::sycl_read>(cgh);
      cgh.copy(acc, back_sycl.data());
    });
  }  // destructor handles release + write-back
  COF_CHECK(back_ocl == host && back_sycl == host);
  std::printf("  verified: both paths round-trip %zu ints identically\n", host.size());
}

void table3_data_movement(cl_env& env) {
  std::printf("\nTable III — data movement between host and device\n");
  std::printf("  OpenCL: clEnqueueWriteBuffer/clEnqueueReadBuffer(q, buf, ..., "
              "offset, cb, ptr, ...)\n");
  std::printf("  SYCL  : ranged accessor + cgh.copy(...) + wait()\n");
  const size_t N = 128, off = 32, cb = 64;
  std::vector<int> src(cb);
  std::iota(src.begin(), src.end(), 100);
  // OpenCL: write into [off, off+cb), read back.
  cl_int err;
  cl_mem d = clCreateBuffer(env.ctx, CL_MEM_READ_WRITE, N * sizeof(int), nullptr, &err);
  CK(err);
  CK(clEnqueueWriteBuffer(env.q, d, CL_TRUE, off * sizeof(int), cb * sizeof(int),
                          src.data(), 0, nullptr, nullptr));
  std::vector<int> out_ocl(cb);
  CK(clEnqueueReadBuffer(env.q, d, CL_TRUE, off * sizeof(int), cb * sizeof(int),
                         out_ocl.data(), 0, nullptr, nullptr));
  CK(clReleaseMemObject(d));
  // SYCL: same through ranged accessors.
  std::vector<int> out_sycl(cb);
  {
    sycl::queue q{sycl::gpu_selector{}};
    sycl::buffer<int, 1> buf{sycl::range<1>(N)};
    q.submit([&](sycl::handler& cgh) {
       auto acc = buf.get_access<sycl::sycl_write>(cgh, sycl::range<1>(cb),
                                                   sycl::id<1>(off));
       cgh.copy(src.data(), acc);
     }).wait();
    q.submit([&](sycl::handler& cgh) {
       auto acc = buf.get_access<sycl::sycl_read>(cgh, sycl::range<1>(cb),
                                                  sycl::id<1>(off));
       cgh.copy(acc, out_sycl.data());
     }).wait();
  }
  COF_CHECK(out_ocl == src && out_sycl == src);
  std::printf("  verified: offset %zu, %zu ints moved identically\n", off, cb);
}

// Registered OpenCL-side twin for the Table IV/V demo kernel: cooperative
// reverse within each group (exercises ids + barrier), then atomic count.
void coord_kernel_impl(const oclsim::arg_view& a, xpu::xitem& it) {
  int* out = a.global<int>(0);
  const int* in = a.global<const int>(1);
  int* tile = a.local<int>(2);
  util::u32* counter = a.global<util::u32>(3);
  const size_t gid = it.get_global_id(0);
  const size_t grp = it.get_group(0);
  const size_t ls = it.get_local_range(0);
  const size_t li = gid - grp * ls;
  tile[li] = in[gid];
  it.barrier();
  out[gid] = tile[ls - 1 - li];
  std::atomic_ref<util::u32>(*counter).fetch_add(1u);
}

COF_REGISTER_CL_KERNEL((oclsim::kernel_def{
    "coord_demo",
    {oclsim::arg_kind::mem, oclsim::arg_kind::mem, oclsim::arg_kind::local,
     oclsim::arg_kind::mem},
    /*uses_barrier=*/true, &coord_kernel_impl, nullptr}))

static const char* kCoordSrc = R"CLC(
__kernel void coord_demo(__global int* out, __global const int* in,
                         __local int* tile, __global unsigned int* counter) {
  size_t gid = get_global_id(0);
  size_t li = gid - get_group_id(0) * get_local_size(0);
  tile[li] = in[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[gid] = tile[get_local_size(0) - 1 - li];
  atomic_inc(counter);
}
)CLC";

void tables4and5_coords_barrier_atomics(cl_env& env) {
  std::printf("\nTable IV — coordinate index and barrier\n");
  std::printf("  OpenCL: get_global_id(0) / get_group_id(0) / get_local_size(0) / "
              "barrier(CLK_LOCAL_MEM_FENCE)\n");
  std::printf("  SYCL  : item.get_global_id(0) / item.get_group(0) / "
              "item.get_local_range(0) / item.barrier(fence_space::local_space)\n");
  std::printf("\nTable V — atomic increment\n");
  std::printf("  OpenCL: old = atomic_inc(var)\n");
  std::printf("  SYCL  : atomic_ref<T, relaxed, device, global_space>(val)."
              "fetch_add(1)\n");

  const size_t N = 512, WG = 64;
  std::vector<int> in(N), out_ocl(N), out_sycl(N);
  std::iota(in.begin(), in.end(), 0);
  util::u32 count_ocl = 0, count_sycl = 0;

  // OpenCL path.
  cl_int err;
  cl_mem din = clCreateBuffer(env.ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                              N * sizeof(int), in.data(), &err);
  CK(err);
  cl_mem dout = clCreateBuffer(env.ctx, CL_MEM_WRITE_ONLY, N * sizeof(int), nullptr,
                               &err);
  CK(err);
  cl_mem dcount = clCreateBuffer(env.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                                 sizeof(util::u32), &count_ocl, &err);
  CK(err);
  cl_program prog = clCreateProgramWithSource(env.ctx, 1, &kCoordSrc, nullptr, &err);
  CK(err);
  CK(clBuildProgram(prog, 1, &env.dev, "", nullptr, nullptr));
  cl_kernel k = clCreateKernel(prog, "coord_demo", &err);
  CK(err);
  CK(clSetKernelArg(k, 0, sizeof(cl_mem), &dout));
  CK(clSetKernelArg(k, 1, sizeof(cl_mem), &din));
  CK(clSetKernelArg(k, 2, WG * sizeof(int), nullptr));
  CK(clSetKernelArg(k, 3, sizeof(cl_mem), &dcount));
  size_t gws = N, lws = WG;
  CK(clEnqueueNDRangeKernel(env.q, k, 1, nullptr, &gws, &lws, 0, nullptr, nullptr));
  CK(clEnqueueReadBuffer(env.q, dout, CL_TRUE, 0, N * sizeof(int), out_ocl.data(), 0,
                         nullptr, nullptr));
  CK(clEnqueueReadBuffer(env.q, dcount, CL_TRUE, 0, sizeof(util::u32), &count_ocl, 0,
                         nullptr, nullptr));
  CK(clReleaseKernel(k));
  CK(clReleaseProgram(prog));
  CK(clReleaseMemObject(din));
  CK(clReleaseMemObject(dout));
  CK(clReleaseMemObject(dcount));

  // SYCL path (same kernel body as a lambda).
  {
    sycl::queue q{sycl::gpu_selector{}};
    sycl::buffer<int, 1> bin(in.data(), sycl::range<1>(N));
    sycl::buffer<int, 1> bout(out_sycl.data(), sycl::range<1>(N));
    sycl::buffer<util::u32, 1> bcount(&count_sycl, sycl::range<1>(1));
    q.submit([&](sycl::handler& cgh) {
      auto o = bout.get_access<sycl::sycl_write>(cgh);
      auto i = bin.get_access<sycl::sycl_read>(cgh);
      auto c = bcount.get_access<sycl::sycl_read_write>(cgh);
      sycl::accessor<int, 1, sycl::sycl_read_write, sycl::sycl_lmem> tile(
          sycl::range<1>(WG), cgh);
      cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(N), sycl::range<1>(WG)),
                       [=](sycl::nd_item<1> item) {
                         const size_t gid = item.get_global_id(0);
                         const size_t li =
                             gid - item.get_group(0) * item.get_local_range(0);
                         tile[li] = i[gid];
                         item.barrier(sycl::access::fence_space::local_space);
                         o[gid] = tile[item.get_local_range(0) - 1 - li];
                         sycl::atomic_ref<util::u32, sycl::memory_order::relaxed,
                                          sycl::memory_scope::device,
                                          sycl::access::address_space::global_space>
                             obj(c[0]);
                         obj.fetch_add(1u);
                       });
    });
  }  // bout/bcount write back on destruction
  COF_CHECK(out_ocl == out_sycl);
  COF_CHECK(count_ocl == N && count_sycl == N);
  std::printf("  verified: group-reversed output identical, %u atomic increments on "
              "both paths\n", count_ocl);
}

void table6_kernel_execution() {
  std::printf("\nTable VI — executing the finder kernel\n");
  std::printf("  OpenCL: clSetKernelArg x10 + clEnqueueNDRangeKernel(q, k, 1, NULL, "
              "gws, lws, ...)\n");
  std::printf("  SYCL  : q.submit(h.parallel_for(nd_range<1>(gws, lws), "
              "[=](nd_item<1> it) { finder(it, ...); }))\n");
  // Run the real finder through both host programs on a small chunk.
  auto g = genome::generate(genome::hg19_like(16384, 3));
  const auto pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  cof::pipeline_options opt;
  opt.variant = cof::comparer_variant::base;  // the paper's per-position finder
  auto ocl = cof::make_opencl_pipeline(opt);
  auto syc = cof::make_sycl_pipeline(opt);
  const std::string_view chunk(g.chroms[0].seq.data(),
                               std::min<size_t>(g.chroms[0].seq.size(), 200000));
  ocl->load_chunk(chunk);
  syc->load_chunk(chunk);
  const auto n_ocl = ocl->run_finder(pat);
  const auto n_syc = syc->run_finder(pat);
  auto l_ocl = ocl->read_loci();
  auto l_syc = syc->read_loci();
  std::sort(l_ocl.begin(), l_ocl.end());
  std::sort(l_syc.begin(), l_syc.end());
  COF_CHECK(n_ocl == n_syc && l_ocl == l_syc);
  std::printf("  verified: finder found the same %u PAM loci through both host "
              "programs\n", n_ocl);
}

}  // namespace

int main() {
  bench::print_banner("Tables II-VI", "migration pairs, executed and verified");
  cl_env env;
  table2_memory_management(env);
  table3_data_movement(env);
  tables4and5_coords_barrier_atomics(env);
  table6_kernel_execution();
  std::printf("\nAll migration pairs verified equivalent.\n");
  return 0;
}
