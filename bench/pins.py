"""Digests of the load, pinned so the denominator cannot move silently.

``CONFIG`` covers the testbed, job and load literals of ``workloads.py`` and
is checked on every run; ``LOAD`` covers the arrays ``loads.py`` generates
and is checked at the default seed (11) only, so a claim can still be
re-checked on a seed nobody tuned for.  A mismatch fails the run with
"load changed".
"""

CONFIG = {
    "rand_read_miss": "6cb91fbc4073a6b790b1744766e573a1dab41d184b83aa695f57738fad799150",
    "rand_write_miss": "e2efff6a46dd0e166934ce1a87ef0544e9c438ae63e5958a4ce22ea910718f4c",
    "hot_fit": "7549289f533bf2baa4789e18dee50f0a419ef045553b9fbd09e9880bbccd7779",
    "mpi_scan": "0aaafd0abce5a674137d4f81a12c2a4d18c4ed6f4c3ee4faf72744bdbd199b3a",
    "ckpt_restart": "9f59412711bfbcd189a89df6b1ea02e8b75b7f0c8385d77060ac310045ba820d",
    "svc_open": "584d7f217e4bd0d162c110bb458546e9feb9301ce169fde1196c8582c0164d13",
}

LOAD = {
    "rand_read_miss": "e9d19682e24879add38bd116c1a0db3f499f41f526f1df31f12dd38e30ddeb89",
    "rand_write_miss": "0000785cef85c67ba3429481ed72ea4c7bb8cb7c07ea04d78671f0f91fab475e",
    "hot_fit": "8da2edde9b3778a0cdf6e0afc9b477981083d004aaa7758ea32945e2875fe644",
    "mpi_scan": "6cd268416e954d6c45fbb2cb190c87c256086bb8a35b40b202cd39fcf049be42",
    "ckpt_restart": "aa439546118c796223f67d066a02d4d216b1bc27c1a021e12c6b53843a6807d4",
    "svc_open": "a2cbb4cdd477d7b87e98641381958f67ff861dfea23d313eff61f80b029ae16f",
}
