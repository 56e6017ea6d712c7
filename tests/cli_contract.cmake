# CLI contract suite: drives casoffinder_cli end to end on a small planted
# genome. Run by ctest as
#
#   cmake -DCLI=<casoffinder_cli> -DSIM=<genome_simulator> -DWORK=<dir>
#         -P cli_contract.cmake
#
# 1. Every device backend (O, S, U, P) x variant (opt6, base, opt4) x entry
#    point (in-memory, --stream, --stream --queues 3, warm --stream --index)
#    writes a non-empty output byte-identical to the serial oracle (device
#    C). Three queues spill three files into one merge. The other genome
#    lines, a synth: URI and a .2bit file, run every entry point on device
#    S (warm: a cache miss, then a hit) against their own oracle.
#    --score and --profile print their reports on streamed and warm runs.
# 2. Every hostile command line, malformed input file, unreadable, empty or
#    corrupt genome (FASTA, .2bit, synth: URI), foreign index, missing
#    spill directory and unwritable output or stats path exits 2 with
#    exactly one `error: <message>` line on stderr, no FATAL abort and no
#    spill run left in the temp directory; so do --score and --profile on
#    an index build or the server.

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

# The same genome as .2bit, a second FASTA and .2bit, and the synth: lines.
foreach(out genome.2bit other.fa other.2bit)
  set(seed 3)
  if(out MATCHES "^other")
    set(seed 4)
  endif()
  execute_process(
    COMMAND "${SIM}" --assembly hg19 --scale 16384 --seed ${seed} --out "${WORK}/${out}"
            --plant-guide GGCCGACCTGTCGCTGACGCTGG --plant-count 12 --plant-mm 3
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "genome_simulator failed on ${out}: ${rc}")
  endif()
endforeach()
set(queries "${guide} 4\nCGCCAGCGTCAGCGACAGGTNNN 5\n")
file(WRITE "${WORK}/twobit_input.txt"
     "${WORK}/genome.2bit\nNNNNNNNNNNNNNNNNNNNNNRG\n${queries}")
file(WRITE "${WORK}/other_input.txt"
     "${WORK}/other.fa\nNNNNNNNNNNNNNNNNNNNNNRG\n${queries}")
file(WRITE "${WORK}/other_twobit_input.txt"
     "${WORK}/other.2bit\nNNNNNNNNNNNNNNNNNNNNNRG\n${queries}")
# The synth genome has no planted sites: looser thresholds give it records.
foreach(seed 3 4)
  file(WRITE "${WORK}/synth${seed}_input.txt"
       "synth:hg19:16384:${seed}\nNNNNNNNNNNNNNNNNNNNNNRG\n${guide} 8\nCGCCAGCGTCAGCGACAGGTNNN 8\n")
endforeach()

set(failures 0)

# Run the CLI with `args`, under the environment `cli_env` (VAR=value) when
# it is set and reading `cli_stdin` when that is set; sets run_rc and
# run_err in the caller.
function(run_cli)
  set(launcher "")
  if(cli_env)
    set(launcher "${CMAKE_COMMAND}" -E env "${cli_env}")
  endif()
  set(input "")
  if(cli_stdin)
    set(input INPUT_FILE "${cli_stdin}")
  endif()
  execute_process(COMMAND ${launcher} "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}" ${input}
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

# Every entry point on the synth: and .2bit lines, device S, against the
# line's own oracle. The warm row runs twice: a cache miss builds the index,
# the rerun hits it.
foreach(line synth3 twobit)
  run_cli(${line}_input.txt C ${line}_oracle.txt)
  file(SIZE "${WORK}/${line}_oracle.txt" oracle_bytes)
  if(NOT run_rc EQUAL 0 OR oracle_bytes EQUAL 0)
    message(FATAL_ERROR "${line} oracle failed (exit ${run_rc}, ${oracle_bytes} bytes): ${run_err}")
  endif()
  foreach(entry memory stream queues3 warm_miss warm_hit)
    set(args ${chunk})
    if(entry STREQUAL "stream")
      list(APPEND args --stream)
    elseif(entry STREQUAL "queues3")
      list(APPEND args --stream --queues 3)
    elseif(entry MATCHES "^warm")
      list(APPEND args --index ${line}.cofidx)
    endif()
    set(out "out_${line}_${entry}.txt")
    run_cli(${args} ${line}_input.txt S ${out})
    set(where "${line} S (${entry})")
    if(NOT run_rc EQUAL 0)
      fail("${where}: exit ${run_rc}: ${run_err}")
      continue()
    endif()
    if(entry MATCHES "^warm_(miss|hit)$")
      set(want "index cache ${CMAKE_MATCH_1}")
      if(NOT run_err MATCHES "${want}")
        fail("${where}: no '${want}' on stderr: ${run_err}")
      endif()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK}/${out}" "${WORK}/${line}_oracle.txt"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      fail("${where}: output differs from the serial oracle")
    endif()
  endforeach()
endforeach()

# --score and --profile report on every run that answers the queries: the
# streamed and warm runs print the MIT table and the kernel profile on
# stderr, as the in-memory run does, and still match the oracle.
foreach(entry stream warm)
  set(args ${chunk} --stream)
  if(entry STREQUAL "warm")
    list(APPEND args --index genome.cofidx)
  endif()
  foreach(flag score profile)
    set(out "out_${flag}_${entry}.txt")
    run_cli(${args} --${flag} input.txt S ${out})
    set(where "--${flag} (${entry})")
    if(flag STREQUAL "score")
      set(want "guide specificity \\(MIT/Hsu\\)")
    else()
      set(want "kernel profile:.*comparer share of kernel time")
    endif()
    if(NOT run_rc EQUAL 0)
      fail("${where}: exit ${run_rc}: ${run_err}")
      continue()
    elseif(NOT run_err MATCHES "${want}")
      fail("${where}: no report on stderr: ${run_err}")
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK}/${out}" "${WORK}/oracle.txt"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      fail("${where}: output differs from the serial oracle")
    endif()
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
# A .2bit whose one N block starts at 0xFFFFFFF8 with size 0x10 (the u32
# sum wraps to 8), one cut inside its sequence index, and one whose three
# index entries all point at the same 16-base record (offset 37, just past
# the index).
find_program(PRINTF printf REQUIRED)
set(twobit_header "\\103\\047\\101\\032\\000\\000\\000\\000\\001\\000\\000\\000\\000\\000\\000\\000")
execute_process(
  COMMAND "${PRINTF}" "${twobit_header}\\004chr1\\031\\000\\000\\000\\020\\000\\000\\000\\001\\000\\000\\000\\370\\377\\377\\377\\020\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\033\\033\\033\\033"
  OUTPUT_FILE "${WORK}/crafted.2bit" RESULT_VARIABLE rc)
execute_process(COMMAND "${PRINTF}" "${twobit_header}\\004chr"
                OUTPUT_FILE "${WORK}/truncated.2bit" RESULT_VARIABLE rc2)
set(shared_entries "")
foreach(name s0 s1 s2)
  string(APPEND shared_entries "\\002${name}\\045\\000\\000\\000")
endforeach()
set(shared_header "\\103\\047\\101\\032\\000\\000\\000\\000\\003\\000\\000\\000\\000\\000\\000\\000")
execute_process(
  COMMAND "${PRINTF}" "${shared_header}${shared_entries}\\020\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\033\\033\\033\\033"
  OUTPUT_FILE "${WORK}/shared.2bit" RESULT_VARIABLE rc3)
if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0)
  message(FATAL_ERROR "printf failed writing the hostile .2bit files")
endif()
foreach(src missing no_fasta empty crafted truncated shared bad_synth bad_scale
            unknown_synth zero_scale)
  set(genome_path "${WORK}/${src}.fa")
  if(src STREQUAL "no_fasta")
    set(genome_path "${WORK}/no_fasta")
  elseif(src MATCHES "^(crafted|truncated|shared)$")
    set(genome_path "${WORK}/${src}.2bit")
  elseif(src STREQUAL "bad_synth")
    set(genome_path "synth:")
  elseif(src STREQUAL "bad_scale")
    set(genome_path "synth:hg19:abc")
  elseif(src STREQUAL "unknown_synth")
    set(genome_path "synth:hg99")
  elseif(src STREQUAL "zero_scale")
    set(genome_path "synth:hg19:0")
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
    "serial device, serve|--serve|input.txt|C"
    "wrapping N block .2bit, in-memory|crafted_genome.txt|S"
    "wrapping N block .2bit, streamed|--stream|crafted_genome.txt|S"
    "truncated .2bit, in-memory|truncated_genome.txt|S"
    "truncated .2bit, streamed|--stream|truncated_genome.txt|S"
    "three entries on one .2bit record, in-memory|shared_genome.txt|S"
    "three entries on one .2bit record, streamed|--stream|shared_genome.txt|S"
    "synth: without assembly, in-memory|bad_synth_genome.txt|S"
    "synth: without assembly, streamed|--stream|bad_synth_genome.txt|S"
    "synth: non-numeric scale, in-memory|bad_scale_genome.txt|S"
    "synth: non-numeric scale, streamed|--stream|bad_scale_genome.txt|S"
    "synth: unknown assembly, in-memory|unknown_synth_genome.txt|S"
    "synth: unknown assembly, streamed|--stream|unknown_synth_genome.txt|S"
    "synth: zero scale, in-memory|zero_scale_genome.txt|S"
    "synth: zero scale, streamed|--stream|zero_scale_genome.txt|S")

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

# An index build and the server answer none of the input's queries, so
# --score and --profile have nothing to report there. A stats file that
# cannot be opened fails before serving, and an unwritable record output
# fails clean with the stats heartbeat on too.
file(WRITE "${WORK}/serve_stdin.txt" "${guide}:3\n")
set(cli_stdin "${WORK}/serve_stdin.txt")
foreach(flag score profile)
  run_cli(--${flag} --serve input.txt S hostile_out.txt)
  expect_clean_error("--${flag} with --serve")
  run_cli(--${flag} --build-index report.cofidx input.txt S hostile_out.txt)
  expect_clean_error("--${flag} with --build-index")
endforeach()
run_cli(--serve --index genome.cofidx --stats-interval 1
        --stats-out no/such/dir/stats.jsonl input.txt S hostile_out.txt)
expect_clean_error("unwritable stats output, serve")
if(NOT run_err MATCHES "cannot open stats output file")
  fail("unwritable stats output, serve: want 'cannot open stats output file': ${run_err}")
endif()
run_cli(--serve --index genome.cofidx --stats-interval 1 input.txt S
        no/such/dir/out.txt)
expect_clean_error("unwritable output, serve with a heartbeat")

# A foreign index never answers: genome.fa's index for other.fa through the
# server, the synth:hg19:16384:3 index for the :4 line, one .2bit's index for
# another.
foreach(c "serve|--serve|--index|genome.cofidx|other_input.txt|S"
          "synth: line|--index|synth3.cofidx|synth4_input.txt|S"
          ".2bit line|--index|twobit.cofidx|other_twobit_input.txt|S")
  string(REPLACE "|" ";" parts "${c}")
  list(POP_FRONT parts name)
  run_cli(${parts} hostile_out.txt)
  expect_clean_error("foreign index, ${name}")
  if(NOT run_err MATCHES "index genome mismatch")
    fail("foreign index, ${name}: want 'index genome mismatch': ${run_err}")
  endif()
endforeach()
unset(cli_stdin)

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
