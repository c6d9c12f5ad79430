# CLI boundary gate (ctest): flag values no network or sweep can be built
# from must be rejected as usage errors — exit code 1 with the offending
# flag named on stderr — instead of aborting on an uncaught exception
# (label --nodes=-5, sweep --networks=-1), building a grid with a zero /
# non-finite cell size (--range=0|-1|nan), printing an all-zero table
# (sweep --networks=0, --pairs=0|-3) or silently running a scenario's
# default size (scenario --networks=-2, --pairs=-1; 0 means the default).
# A tiny finite range (--range=1e-300) is valid.
#
# Invoked as:
#   cmake -DSPR_CLI=<path-to-spr_cli> -P cli_args_gate.cmake

if(NOT DEFINED SPR_CLI)
  message(FATAL_ERROR "cli_args_gate.cmake needs -DSPR_CLI=...")
endif()

# Each case: "<command>|<flag name>|<arguments>".
set(cases
    "label|nodes|--nodes=-5"
    "label|range|--range=0"
    "label|range|--range=-1"
    "label|range|--range=nan"
    "sweep|networks|--networks=-1 --pairs=2"
    "sweep|networks|--networks=0"
    "sweep|pairs|--pairs=0"
    "sweep|pairs|--pairs=-3"
    "scenario|networks|failure-dynamics --networks=-2"
    "scenario|pairs|failure-dynamics --networks=1 --pairs=-1")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 flag)
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
  string(FIND "${stderr}" "--${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "spr_cli ${command} ${arg}: stderr does not name "
                        "--${flag}: ${stderr}")
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
