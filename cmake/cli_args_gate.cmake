# CLI boundary gate (ctest): flag values no network or sweep can be built
# from must be rejected as usage errors — exit code 1 with the offending
# flag named on stderr — instead of aborting on an uncaught exception
# (label --nodes=-5, sweep --networks=-1), building a grid with a zero /
# non-finite cell size (--range=0|-1|nan), printing an all-zero table
# (sweep --networks=0, --pairs=0|-3) or silently running a scenario's
# default size (scenario --networks=-2, --pairs=-1; 0 means the default).
# --threads outside [0, 256] is rejected before any worker pool starts
# (0 means hardware), and `route <s> <d>` ids must be whole tokens in node
# id range: a non-number, or one past 32 bits, names the argument instead
# of aborting or wrapping to another node; a lone `route <s>` names the
# missing <d> instead of routing a random pair, and a third id is named
# instead of being ignored. A given pair with no path between them still
# routes (exit 0) but says so instead of printing a 0-hop optimum, and GF
# stops at a dead end there instead of expiring its TTL. A tiny
# finite range (--range=1e-300) is valid.
#
# Invoked as:
#   cmake -DSPR_CLI=<path-to-spr_cli> -P cli_args_gate.cmake

if(NOT DEFINED SPR_CLI)
  message(FATAL_ERROR "cli_args_gate.cmake needs -DSPR_CLI=...")
endif()

# Each case: "<command>|<text stderr must name>|<arguments>".
set(cases
    "label|--nodes|--nodes=-5"
    "label|--range|--range=0"
    "label|--range|--range=-1"
    "label|--range|--range=nan"
    "sweep|--networks|--networks=-1 --pairs=2"
    "sweep|--networks|--networks=0"
    "sweep|--pairs|--pairs=0"
    "sweep|--pairs|--pairs=-3"
    "sweep|--threads|--threads=-1"
    "scenario|--networks|failure-dynamics --networks=-2"
    "scenario|--pairs|failure-dynamics --networks=1 --pairs=-1"
    "scenario|--threads|failure-dynamics --networks=1 --threads=-3"
    "scenario|--threads|failure-dynamics --networks=1 --threads=100000"
    "route|abc|abc 3"
    "route|99999999999999999999|99999999999999999999 3"
    "route|4294967296|5 4294967296"
    "route|<d>|5"
    "route|'9'|5 7 9")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 needle)
  list(GET parts 2 arg)
  separate_arguments(args UNIX_COMMAND "${arg}")
  execute_process(
    COMMAND "${SPR_CLI}" ${command} ${args}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT result STREQUAL "1")
    message(FATAL_ERROR
            "spr_cli ${command} ${arg}: expected exit 1, got '${result}'")
  endif()
  string(FIND "${stderr}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "spr_cli ${command} ${arg}: stderr does not name "
                        "${needle}: ${stderr}")
  endif()
endforeach()

# Valid values still build and label — including a vanishing but finite
# range, whose spatial grid must cap its cell count instead of casting
# ~1e302 columns to int. One network of one pair per point is the smallest
# valid sweep.
foreach(args IN ITEMS "label;--nodes=50;--range=20"
                      "label;--range=1e-300;--nodes=50"
                      "sweep;--networks=1;--pairs=1")
  execute_process(
    COMMAND "${SPR_CLI}" ${args}
    RESULT_VARIABLE ok_result
    OUTPUT_QUIET)
  if(NOT ok_result EQUAL 0)
    message(FATAL_ERROR "spr_cli ${args} failed (exit ${ok_result})")
  endif()
endforeach()

# Nodes 5 and 7 of the default-seed 100-node network are disconnected: the
# oracle line must say there is no path, and the routers still run.
execute_process(
  COMMAND "${SPR_CLI}" route 5 7 --nodes 100
  RESULT_VARIABLE route_result
  OUTPUT_VARIABLE route_stdout)
if(NOT route_result EQUAL 0)
  message(FATAL_ERROR "spr_cli route 5 7 --nodes 100 failed (exit ${route_result})")
endif()
foreach(needle IN ITEMS "optimal: no path" "SLGF2")
  string(FIND "${route_stdout}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "spr_cli route 5 7 --nodes 100: stdout lacks "
                        "'${needle}': ${route_stdout}")
  endif()
endforeach()

# GF's face walk stops once it has toured a whole face without progress
# (GPSR's first-edge test): on this disconnected pair both GF variants end
# at `dead-end` instead of burning the whole 8n TTL.
foreach(scheme IN ITEMS "GF" "GF/face")
  string(REGEX MATCH "\n${scheme} +[^\n]*" line "${route_stdout}")
  if(line STREQUAL "" OR NOT line MATCHES "dead-end" OR line MATCHES "ttl-expired")
    message(FATAL_ERROR "spr_cli route 5 7 --nodes 100: the ${scheme} line "
                        "must end at dead-end, not ttl-expired: ${route_stdout}")
  endif()
endforeach()
