(* A dependency-free HTTP/1.0 listener for live campaign state. One
   systhread accepts and answers requests sequentially — requests are
   tiny, handlers render from in-memory registry state, and systhreads
   interleave with the campaign at safepoints, so no locking is needed
   (a snapshot taken mid-update is merely slightly stale, never corrupt).
   Forked campaign workers inherit the listening fd but not the accept
   thread, so only the parent ever answers. *)

type handler = unit -> string * string  (* content-type, body *)

type t = {
  sock : Unix.file_descr;
  port : int;
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let http_response ?(status = "200 OK") ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | 0 -> ()
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  (try go 0 with Unix.Unix_error _ -> ())

let request_path fd =
  (* Read enough for the request line; we never need the headers. *)
  let buf = Bytes.create 2048 in
  match Unix.read fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error _ -> None
  | 0 -> None
  | n -> (
      let req = Bytes.sub_string buf 0 n in
      match String.index_opt req '\n' with
      | None -> None
      | Some eol -> (
          let line = String.trim (String.sub req 0 eol) in
          match String.split_on_char ' ' line with
          | "GET" :: path :: _ ->
              (* Strip any query string. *)
              Some
                (match String.index_opt path '?' with
                | Some q -> String.sub path 0 q
                | None -> path)
          | _ -> None))

let answer routes fd =
  (match request_path fd with
  | None -> send_all fd (http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n")
  | Some path -> (
      match List.assoc_opt path routes with
      | None ->
          send_all fd (http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n")
      | Some handler -> (
          match handler () with
          | content_type, body -> send_all fd (http_response ~content_type body)
          | exception e ->
              send_all fd
                (http_response ~status:"500 Internal Server Error"
                   ~content_type:"text/plain"
                   (Printexc.to_string e ^ "\n")))));
  (* A campaign worker forked while this request was answered holds a
     copy of [fd]: closing ours alone would leave the client waiting for
     end of stream until that worker exits. *)
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ~port routes =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 16;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { sock; port; stopped = false; thread = None } in
  let loop () =
    let rec go () =
      match Unix.accept t.sock with
      | client, _ ->
          answer routes client;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> if not t.stopped then go ()
      | exception _ -> ()
    in
    go ()
  in
  t.thread <- Some (Thread.create loop ());
  t

let port t = t.port

let stop t =
  t.stopped <- true;
  (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.thread

(* --- client ------------------------------------------------------------------ *)

(* Minimal HTTP GET, used by [switchv top] and `make check-obs` so the
   gate needs no curl in the container. *)
let fetch ?(host = "127.0.0.1") ~port path =
  match Unix.inet_addr_of_string host with
  | exception _ -> Error (Printf.sprintf "bad host %S" host)
  | addr -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let finally () = try Unix.close sock with Unix.Unix_error _ -> () in
      match
        Fun.protect ~finally @@ fun () ->
        Unix.connect sock (Unix.ADDR_INET (addr, port));
        send_all sock
          (Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n"
             path host);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        Buffer.contents buf
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | raw -> (
          let sep = "\r\n\r\n" in
          let split_at i =
            ( String.sub raw 0 i,
              String.sub raw (i + String.length sep)
                (String.length raw - i - String.length sep) )
          in
          let rec find i =
            if i + String.length sep > String.length raw then None
            else if String.sub raw i (String.length sep) = sep then Some i
            else find (i + 1)
          in
          match find 0 with
          | None -> Error "malformed HTTP response"
          | Some i -> (
              let head, body = split_at i in
              match String.split_on_char ' ' head with
              | _ :: code :: _ ->
                  if code = "200" then Ok body
                  else Error (Printf.sprintf "HTTP %s: %s" code (String.trim body))
              | _ -> Error "malformed HTTP status line")))
