external now_us : unit -> int = "omf_clock_now_us" [@@noalloc]
