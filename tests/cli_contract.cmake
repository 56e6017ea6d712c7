# CLI contract suite: drives casoffinder_cli end to end on a small planted
# genome. Run by ctest as
#
#   cmake -DCLI=<casoffinder_cli> -DSIM=<genome_simulator> -DWORK=<dir>
#         -P cli_contract.cmake
#
# 1. Every device backend (O, S, U, P) x variant (opt6, base, opt4) x entry
#    point (in-memory, --stream, --stream --queues 3, warm --stream --index)
#    writes a non-empty output byte-identical to the serial oracle (device
#    C). Three queues spill three files into one merge.
# 2. Every hostile command line, malformed input file, unreadable or empty
#    genome, missing spill directory and unwritable output path exits 2
#    with exactly one `error: <message>` line on stderr, no FATAL abort and
#    no spill run left in the temp directory.

foreach(var CLI SIM WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_contract.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(guide "GGCCGACCTGTCGCTGACGCNNN")
execute_process(
  COMMAND "${SIM}" --assembly hg19 --scale 16384 --seed 3 --out "${WORK}/genome.fa"
          --plant-guide GGCCGACCTGTCGCTGACGCTGG --plant-count 12 --plant-mm 3
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "genome_simulator failed: ${rc}")
endif()
file(WRITE "${WORK}/input.txt"
     "${WORK}/genome.fa\nNNNNNNNNNNNNNNNNNNNNNRG\n${guide} 4\nCGCCAGCGTCAGCGACAGGTNNN 5\n")

set(failures 0)

# Run the CLI with `args`, under the environment `cli_env` (VAR=value) when
# it is set; sets run_rc and run_err in the caller.
function(run_cli)
  set(launcher "")
  if(cli_env)
    set(launcher "${CMAKE_COMMAND}" -E env "${cli_env}")
  endif()
  execute_process(COMMAND ${launcher} "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(run_rc "${rc}" PARENT_SCOPE)
  set(run_err "${err}" PARENT_SCOPE)
endfunction()

macro(fail what)
  message(SEND_ERROR "${what}")
  math(EXPR failures "${failures} + 1")
endmacro()

# --- 1. byte identity against the serial oracle ---------------------------
run_cli(input.txt C oracle.txt)
file(SIZE "${WORK}/oracle.txt" oracle_bytes)
if(NOT run_rc EQUAL 0 OR oracle_bytes EQUAL 0)
  message(FATAL_ERROR "serial oracle failed (exit ${run_rc}, ${oracle_bytes} bytes): ${run_err}")
endif()

set(chunk --chunk 4096)
foreach(device O S U P)
  foreach(variant opt6 base opt4)
    foreach(entry memory stream queues3 warm)
      set(args ${chunk} --variant ${variant})
      if(entry STREQUAL "stream")
        list(APPEND args --stream)
      elseif(entry STREQUAL "queues3")
        list(APPEND args --stream --queues 3)
      elseif(entry STREQUAL "warm")
        # The first warm run builds the index (a cache miss), the rest hit.
        list(APPEND args --stream --index genome.cofidx)
      endif()
      set(out "out_${device}_${variant}_${entry}.txt")
      run_cli(${args} input.txt ${device} ${out})
      set(where "${device} --variant ${variant} (${entry})")
      if(NOT run_rc EQUAL 0)
        fail("${where}: exit ${run_rc}: ${run_err}")
        continue()
      endif()
      execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                              "${WORK}/${out}" "${WORK}/oracle.txt"
                      RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        fail("${where}: output differs from the serial oracle")
      endif()
    endforeach()
  endforeach()
endforeach()

# --- 2. hostile input fails clean -------------------------------------------
file(WRITE "${WORK}/bad_input.txt"
     "${WORK}/genome.fa\nNNNNNNNNNNNNNNNNNNNNNRG\n${guide} 70000\n")
# Genome sources that name no readable records: a missing file, a directory
# without FASTA files, and a FASTA without records.
file(MAKE_DIRECTORY "${WORK}/no_fasta")
file(WRITE "${WORK}/no_fasta/notes.txt" "not fasta\n")
file(WRITE "${WORK}/empty.fa" "")
foreach(src missing no_fasta empty)
  set(genome_path "${WORK}/${src}.fa")
  if(src STREQUAL "no_fasta")
    set(genome_path "${WORK}/no_fasta")
  endif()
  file(WRITE "${WORK}/${src}_genome.txt"
       "${genome_path}\nNNNNNNNNNNNNNNNNNNNNNRG\n${guide} 4\n")
endforeach()
# Every hostile case spills, if at all, into its own temp directory, which
# must be empty afterwards.
file(MAKE_DIRECTORY "${WORK}/spill")
set(cli_env "TMPDIR=${WORK}/spill")

# Each case: a name, then the CLI arguments, separated by "|".
set(cases
    "short guide, in-memory|--query|ACGT:2|input.txt|S"
    "short guide, streamed|--stream|--query|ACGT:2|input.txt|S"
    "short guide, serial|--query|ACGT:2|input.txt|C"
    "short guide, warm|--stream|--index|genome.cofidx|--query|ACGT:2|input.txt|S"
    "non-IUPAC guide, in-memory|--query|GGCCGACCTGTCGCTGACGCNNZ:3|input.txt|S"
    "non-IUPAC guide, streamed|--stream|--query|GGCCGACCTGTCGCTGACGCNNZ:3|input.txt|S"
    "non-numeric mismatch count|--query|${guide}:x|input.txt|S"
    "mismatch count out of range|--query|${guide}:70000|input.txt|S"
    "unknown variant|--variant|opt9|input.txt|S"
    "retired variant|--variant|opt5|input.txt|S"
    "unknown device|input.txt|X"
    "chunk within the pattern, in-memory|--chunk|10|input.txt|S"
    "chunk within the pattern, streamed|--stream|--chunk|10|input.txt|S"
    "chunk within the pattern, index build|--build-index|tiny.cofidx|--chunk|10|input.txt|S"
    "malformed input file|bad_input.txt|S"
    "missing genome, in-memory|missing_genome.txt|S"
    "missing genome, streamed|--stream|missing_genome.txt|S"
    "directory without FASTA, in-memory|no_fasta_genome.txt|S"
    "directory without FASTA, streamed|--stream|no_fasta_genome.txt|S"
    "empty FASTA, in-memory|empty_genome.txt|S"
    "empty FASTA, streamed|--stream|empty_genome.txt|S"
    "serial device, streamed|--stream|input.txt|C"
    "serial device, warm|--index|serial.cofidx|input.txt|C"
    "serial device, index build|--build-index|serial.cofidx|input.txt|C"
    "serial device, serve|--serve|input.txt|C")

# Exit 2, one `error:` line, no FATAL abort, no spill run left behind.
macro(expect_clean_error name)
  string(REGEX MATCHALL "(^|\n)error: " error_lines "${run_err}")
  list(LENGTH error_lines n_errors)
  file(GLOB leftovers "${WORK}/spill/cof_spill_*")
  if(NOT run_rc EQUAL 2)
    fail("${name}: exit ${run_rc}, want 2: ${run_err}")
  elseif(NOT n_errors EQUAL 1)
    fail("${name}: ${n_errors} error: lines, want 1: ${run_err}")
  elseif(run_err MATCHES "FATAL")
    fail("${name}: FATAL abort: ${run_err}")
  endif()
  if(leftovers)
    fail("${name}: left spill runs behind: ${leftovers}")
    file(REMOVE ${leftovers})
  endif()
endmacro()

foreach(c IN LISTS cases)
  string(REPLACE "|" ";" parts "${c}")
  list(POP_FRONT parts name)
  run_cli(${parts} hostile_out.txt)
  expect_clean_error("${name}")
endforeach()

# An output path that cannot be opened, on both entry points.
run_cli(input.txt S no/such/dir/out.txt)
expect_clean_error("unwritable output, in-memory")
run_cli(--stream input.txt S no/such/dir/out.txt)
expect_clean_error("unwritable output, streamed")

# A temp directory that does not exist, where the spill runs would go.
set(cli_env "TMPDIR=${WORK}/no/such/dir")
run_cli(--stream input.txt S hostile_out.txt)
expect_clean_error("missing spill directory")
unset(cli_env)

if(failures GREATER 0)
  message(FATAL_ERROR "cli_contract: ${failures} failure(s)")
endif()
file(REMOVE_RECURSE "${WORK}")
message(STATUS "cli_contract: all cases passed")
