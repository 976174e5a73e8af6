"""``python -m toepfree ARGS``: run the CLI, then end the process.

When toepfree is the interpreter's whole program, the process ends with
``os._exit`` once the exit hooks have run and the output is flushed, so
it skips module teardown, the final garbage collection and object
finalizers: no code is left that could observe them. Otherwise it raises
SystemExit, as the interpreter's normal exit.
"""

import _thread
import atexit
import os
import re
import sys

from .cli import main

#: the interpreter options that may precede ``-m toepfree``, each followed
#: by a NUL: flags, and -W and -X with their values; -c and -m start
#: another program
_OPTIONS = re.compile(r"(?:-[bBdEiIOPqRsSuvx]+\0|-[WX]\0?[^\0]+\0"
                      r"|--check-hash-based-pycs\0[^\0]+\0)*")


def _whole_program() -> bool:
    """Whether the interpreter was started as ``python [options] -m
    toepfree ARGS``, with ARGS the CLI's, and nothing watches or outlives
    its run: no -i or PYTHONINSPECT, no trace, profile or monitoring tool,
    no -X dev, no thread but the main one."""
    argv, tail = sys.orig_argv, ["-m", "toepfree", *sys.argv[1:]]
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on
    return (
        argv[-len(tail):] == tail
        and _OPTIONS.fullmatch("".join(f"{a}\0" for a in argv[1:-len(tail)]))
        is not None
        and not (sys.flags.inspect or os.environ.get("PYTHONINSPECT"))
        and not sys.flags.dev_mode
        and sys.gettrace() is None
        and sys.getprofile() is None
        and not (monitoring and any(map(monitoring.get_tool, range(6))))
        and _thread._count() == 0
    )


if __name__ == "__main__":
    code = main()
    if _whole_program():
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass  # the interpreter's own exit reports it
        else:
            os._exit(code)
    raise SystemExit(code)
