"""One set-up of a library workload in a fresh process: import amoh and,
for member-certify, complete the curves' bases.  Prints the CPU seconds
it took.  Usage: python3 setup_child.py <workload>"""

import sys
import time

import workloads  # before the clock starts; it does not import amoh


def main(workload):
    t0 = time.process_time()
    import amoh  # noqa: F401

    if workload == workloads.MemberCertify.name:
        workloads.complete_bases(workloads.MemberCertify.SETUP_CURVES)
    print(repr(time.process_time() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
