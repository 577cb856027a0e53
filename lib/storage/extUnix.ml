external unsafe_pread : Unix.file_descr -> bytes -> int -> int -> int -> int
  = "caml_hyper_pread"

external unsafe_pwrite : Unix.file_descr -> bytes -> int -> int -> int -> int
  = "caml_hyper_pwrite"

let check name buf buf_off len =
  if buf_off < 0 || len < 0 || buf_off > Bytes.length buf - len then
    invalid_arg name

let pread fd buf file_off buf_off len =
  check "ExtUnix.pread" buf buf_off len;
  unsafe_pread fd buf file_off buf_off len

let pwrite fd buf file_off buf_off len =
  check "ExtUnix.pwrite" buf buf_off len;
  unsafe_pwrite fd buf file_off buf_off len
