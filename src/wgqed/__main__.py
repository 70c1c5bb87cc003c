"""Entry point of ``python -m wgqed`` and of the ``wgqed`` script.

Each process runs one command. ``run`` imports the command line with
the cyclic garbage collector off, then freezes what the imports left
(``gc.freeze``), so that neither the import nor the command nor the
interpreter's teardown rescans the ~22,400 objects that numpy and the
package leave on the heap; it freezes once more after the command.
Collection stays on while the command runs, for the objects it makes.

The freeze relies on two conditions that ``wgqed.cli.main`` keeps:
every artifact is closed and standard output is flushed before
``main`` returns, and nothing depends on the finalizer of an object in
a reference cycle, since frozen objects are never collected. ``main``
itself leaves the collector alone, because tests and benchmarks call
it in processes where a freeze would pin the caller's heap.

The first freeze also pins the ~350 unreachable objects the imports
leave, 0.1-0.3 MB of a command's 30-40 MB peak. No collection frees
them first: on 2 vCPUs under Python 3.11 one costs 4-9 ms, about half
of the ~17 ms per process that the freeze saves.
"""

import gc


def run() -> int:
    """Run the command named on the command line; return its exit
    status. The collector is enabled on return, and when the import
    or the command raises."""
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(run())
